package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/flow"
	"repro/query"
	"repro/recordstore"
	"repro/topk"
)

// Query-side sizes.
const (
	queryPersistent = 17000
	queryChurn      = 3000
	queryPreload    = 128 // epochs written and compacted in set-up
	queryHot        = 32
	queryCompact    = 32
	queryWindow     = 16 // epochs per cold /v1/flows time window
	queryPeriod     = 50 * time.Millisecond
	queryLimit      = 100
	queryFilters    = 4
	queryEpochsList = 64
	minQueryCycles  = 3
)

// queryBase is epoch 0's timestamp; epoch i is stamped queryBase + i s, so
// time windows select known epochs whatever the wall clock says.
var queryBase = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

func queryTime(epoch int) time.Time { return queryBase.Add(time.Duration(epoch) * time.Second) }

// The request kinds of the mix, and the cycle they are issued in: 40 % cold
// windows, 30 % newest hot epoch, 20 % top-k, 10 % epoch listing.
const (
	kindCold = iota
	kindHot
	kindTopK
	kindEpochs
	numKinds
)

var kindNames = [numKinds]string{"flows_cold", "flows_hot", "topk", "epochs"}

var queryCycle = [10]int{kindCold, kindHot, kindTopK, kindCold, kindHot, kindCold, kindEpochs, kindTopK, kindHot, kindCold}

// sample is one completed request, kept for the oracle that runs after the
// timed section.
type sample struct {
	kind   int
	lo, hi int // epoch range asked for (flows kinds)
	filter int // index of the src filter
	ms     float64
	status int
	body   []byte
	span   spanID
}

// queryBench is the wired read side — query.NewHandler over a per-request
// query.FileStore on a live tiered store, served on loopback TCP — plus the
// writer that keeps appending epochs to that store underneath it.
type queryBench struct {
	tr  *tracer
	gen *recGen
	dir string

	tiered   *recordstore.Tiered
	tracker  *topk.Tracker
	ln       net.Listener
	server   *http.Server
	serveErr chan error
	client   *http.Client
	baseURL  string
	preload  int

	written atomic.Int64 // epochs durable in the store

	// cur is the request in flight, for the server-side wrappers to parent
	// their spans on. One closed-loop client means at most one.
	cur atomic.Int64 // spanID of the client span, or noSpan
	// handlerSpan is the span of the ServeHTTP call in progress.
	handlerSpan atomic.Int64

	compactions compactLog
}

func newQuery(o options, tr *tracer) (instance, error) {
	b := &queryBench{tr: tr, dir: filepath.Join(o.dir, "store"), preload: queryPreload}
	b.cur.Store(int64(noSpan))
	b.handlerSpan.Store(int64(noSpan))
	persistent, churn := queryPersistent, queryChurn
	if o.smoke {
		persistent, churn, b.preload = persistent/10, churn/10, 64
	}
	b.gen = newRecGen(o.seed, persistent, churn)
	var err error
	if b.tracker, err = topk.NewTracker(collectTopK); err != nil {
		return nil, err
	}

	// Preload without fsync, compact everything beyond the hot window into
	// cold segments, then reopen the way a restarted daemon would, with the
	// per-epoch durability the timed section pays for.
	opts := recordstore.TieredOptions{HotEpochs: queryHot, CompactEvery: queryCompact, OnCompact: b.compactions.observe}
	pre, _, err := recordstore.OpenTiered(b.dir, opts)
	if err != nil {
		return nil, err
	}
	var recs []flow.Record
	for e := 0; e < b.preload; e++ {
		recs = b.gen.epoch(e, recs[:0])
		b.tracker.AddRecords(recs)
		if err := pre.WriteEpoch(queryTime(e), recs); err != nil {
			pre.Close()
			return nil, err
		}
	}
	if _, err := pre.Compact(); err != nil {
		pre.Close()
		return nil, err
	}
	if err := pre.Close(); err != nil {
		return nil, err
	}
	b.compactions.stats = nil // set-up's compactions are not the timed section's
	opts.Sync = recordstore.SyncPolicy{Mode: recordstore.SyncEachEpoch}
	if b.tiered, _, err = recordstore.OpenTiered(b.dir, opts); err != nil {
		return nil, err
	}
	b.written.Store(int64(b.preload))

	cfg := query.Config{TopK: b.tracker, Store: query.FileStore(b.dir)}
	if tr != nil {
		cfg.TopK = &timedTopK{b: b, inner: b.tracker}
		cfg.Store = b.timedOpener(cfg.Store)
	}
	var h http.Handler = query.NewHandler(cfg)
	if tr != nil {
		h = &timedHandler{b: b, inner: h}
	}
	if b.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	b.server = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.server.Serve(b.ln) }()
	b.baseURL = "http://" + b.ln.Addr().String()
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}
	// One untimed cycle of the mix: the keep-alive connection is up and
	// every request kind has run once before the clock starts.
	for i := -len(queryCycle); i < 0; i++ {
		s, path := b.request(i + len(queryCycle))
		if err := b.do(&s, path, i); err != nil || s.status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %s: status %d: %v", path, s.status, err)
		}
	}
	return b, nil
}

// do issues one request and fills in the sample's status, body and timing.
// id labels the client span (negative for set-up's warm-up requests).
func (b *queryBench) do(s *sample, path string, id int) error {
	s.span = b.tr.begin("query.request."+kindNames[s.kind], noSpan, id)
	b.cur.Store(int64(s.span))
	t0 := time.Now()
	resp, err := b.client.Get(b.baseURL + path)
	if err == nil {
		s.status = resp.StatusCode
		s.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.ms = float64(time.Since(t0)) / 1e6
	b.tr.end(s.span)
	return err
}

func (b *queryBench) cleanup() {
	b.stopServer()
	if b.tiered != nil {
		b.tiered.Close() // a second Close after run's is harmless
	}
}

// stopServer shuts the HTTP server down and waits for Serve to return; it
// does nothing the second time.
func (b *queryBench) stopServer() {
	if b.server == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if b.server.Shutdown(ctx) != nil {
		b.server.Close()
	}
	cancel()
	<-b.serveErr
	b.server = nil
	b.client.CloseIdleConnections()
}

// filterIP is the source address of the j-th src= filter of the mix.
func (b *queryBench) filterIP(j int) uint32 { return b.gen.srcFilterIP(7 + 1009*j) }

// request builds the i-th request of the run.
func (b *queryBench) request(i int) (sample, string) {
	s := sample{kind: queryCycle[i%len(queryCycle)], filter: (i / len(queryCycle)) % queryFilters}
	flt := "src=" + flow.IPString(b.filterIP(s.filter))
	switch s.kind {
	case kindCold:
		// Windows tile the epochs set-up compacted into cold segments.
		windows := (b.preload - queryHot) / queryWindow
		s.lo = (i / (len(queryCycle) * queryFilters)) % windows * queryWindow
		s.hi = s.lo + queryWindow
		q := url.Values{
			"from":   {queryTime(s.lo).Format(time.RFC3339)},
			"to":     {queryTime(s.hi).Format(time.RFC3339)},
			"filter": {flt},
			"limit":  {fmt.Sprint(queryLimit)},
		}
		return s, "/v1/flows?" + q.Encode()
	case kindHot:
		s.lo = int(b.written.Load()) - 1
		s.hi = s.lo + 1
		q := url.Values{"epoch": {fmt.Sprint(s.lo)}, "filter": {flt}, "limit": {fmt.Sprint(queryLimit)}}
		return s, "/v1/flows?" + q.Encode()
	case kindTopK:
		return s, "/v1/topk?k=10"
	default:
		return s, fmt.Sprintf("/v1/epochs?limit=%d", queryEpochsList)
	}
}

// writeLoop is the open-loop writer: one epoch every queryPeriod, each timed
// from the instant it was due, so a stall delays (and is charged to) every
// epoch queued behind it.
func (b *queryBench) writeLoop(stop <-chan struct{}, start time.Time, out *writerStats) {
	var recs []flow.Record
	for n := 0; ; n++ {
		e := b.preload + n
		recs = b.gen.epoch(e, recs[:0])
		due := start.Add(time.Duration(n) * queryPeriod)
		select {
		case <-stop:
			return
		case <-time.After(time.Until(due)):
		}
		began := time.Now()
		root := b.tr.begin("store.write_epoch", noSpan, e)
		s := b.tr.begin("topk.add", root, e)
		b.tracker.AddRecords(recs)
		b.tr.end(s)
		s = b.tr.begin("recordstore.write", root, e)
		err := b.tiered.WriteEpoch(queryTime(e), recs)
		b.tr.end(s)
		out.fsyncMs = append(out.fsyncMs, float64(b.tiered.LastFsyncNs())/1e6)
		s = b.tr.begin("recordstore.flush", root, e)
		if err == nil {
			err = b.tiered.Flush()
		}
		b.tr.end(s)
		b.tr.end(root)
		done := time.Now()
		if err != nil {
			out.err = fmt.Errorf("write epoch %d: %w", e, err)
			return
		}
		b.written.Add(1)
		out.writeMs = append(out.writeMs, float64(done.Sub(due))/1e6)
		out.lateMs = append(out.lateMs, float64(began.Sub(due))/1e6)
	}
}

type writerStats struct {
	writeMs, lateMs, fsyncMs []float64
	err                      error
}

func (b *queryBench) run(seconds float64) (*runOut, error) {
	res := &runOut{unit: "request", latWhat: "a cold /v1/flows request: 16-epoch time window over cold segments, src filter, limit 100, over loopback HTTP"}
	var (
		ws      writerStats
		samples []sample
		wg      sync.WaitGroup
	)
	stop := make(chan struct{})
	cpu0 := cpuSeconds()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.writeLoop(stop, start, &ws)
	}()

	cycleStart := start
	var busyNs int64
	for i := 0; ; i++ {
		if i%len(queryCycle) == 0 {
			now := time.Now()
			if i > 0 {
				res.rates = append(res.rates, float64(len(queryCycle))/now.Sub(cycleStart).Seconds())
				cpu1 := cpuSeconds()
				res.cpuUs = append(res.cpuUs, (cpu1-cpu0)*1e6/float64(len(queryCycle)))
				cpu0 = cpu1
			}
			cycleStart = now
			if i >= minQueryCycles*len(queryCycle) && now.Sub(start).Seconds() >= seconds {
				break
			}
		}
		s, path := b.request(i)
		err := b.do(&s, path, i)
		busyNs += int64(s.ms * 1e6)
		if err != nil {
			res.attempted++
			res.fail("request %d %s: %v", i, path, err)
			continue
		}
		samples = append(samples, s)
	}
	res.wallS = time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	res.units = float64(len(samples))
	if ws.err != nil {
		res.fail("writer: %v", ws.err)
	}

	// Stop serving, compact what the run left hot, close.
	b.stopServer()
	b.compactions.finish(b.tiered, res)

	byKind := make([][]float64, numKinds)
	for _, s := range samples {
		byKind[s.kind] = append(byKind[s.kind], s.ms)
	}
	res.latMs = byKind[kindCold]
	scan, err := b.verify(res, samples)
	if err != nil {
		return nil, err
	}
	epochs := int(b.written.Load())
	bytes, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}
	res.bytesPerRec = float64(bytes) / float64(epochs*b.gen.size())
	res.coverage = float64(scan.matched) / math.Max(float64(scan.checked), 1)
	res.countAccuracy = 1 - math.Abs(float64(scan.gotPkts)-float64(scan.wantPkts))/math.Max(float64(scan.wantPkts), 1)
	res.notes = append(res.notes,
		fmt.Sprintf("%d requests (cold %d, hot %d, topk %d, epochs %d) beside %d epochs written every %v; p50 ms: cold %.3f hot %.3f topk %.3f epochs %.3f; write_epoch p50 %.3f ms, writer late p50 %.3f ms; %d compactions",
			len(samples), len(byKind[kindCold]), len(byKind[kindHot]), len(byKind[kindTopK]), len(byKind[kindEpochs]),
			len(ws.writeMs), queryPeriod, median(byKind[kindCold]), median(byKind[kindHot]), median(byKind[kindTopK]), median(byKind[kindEpochs]),
			median(ws.writeMs), median(ws.lateMs), len(b.compactions.stats)))
	if b.tr != nil {
		b.layerMetrics(res, samples, byKind, ws, scan, busyNs)
	}
	return res, nil
}

// verifyStats is the response oracle's tally.
type verifyStats struct {
	checked, matched  int
	wantPkts, gotPkts uint64
	hotNs, coldNs     int64
	hotRecs, coldRecs int64
	rangeUs           []float64
}

// verify recomputes every response from the finished store: a direct
// EpochSource scan plus Filter over the same epochs, rendered with the wire
// type's own fields, must equal the body the server sent.
func (b *queryBench) verify(res *runOut, samples []sample) (verifyStats, error) {
	var st verifyStats
	src, err := recordstore.Open(b.dir)
	if err != nil {
		return st, fmt.Errorf("open finished store: %w", err)
	}
	defer src.Close()
	if want := int(b.written.Load()); src.Epochs() != want {
		res.attempted++
		res.fail("store holds %d epochs, %d were written", src.Epochs(), want)
	}
	info, _ := src.(recordstore.InfoSource)
	type flowsKey struct{ lo, hi, filter int }
	expected := map[flowsKey]query.FlowsResponse{}
	var buf []flow.Record
	reference := func(k flowsKey) (query.FlowsResponse, error) {
		if r, ok := expected[k]; ok {
			return r, nil
		}
		// Range is checked against the indices the timestamps were built
		// from, and timed: it is the binary search every windowed query pays.
		t0 := time.Now()
		lo, hi := src.Range(queryTime(k.lo), queryTime(k.hi))
		st.rangeUs = append(st.rangeUs, float64(time.Since(t0))/1e3)
		if lo != k.lo || hi != k.hi {
			return query.FlowsResponse{}, fmt.Errorf("Range(epoch %d, epoch %d) = [%d, %d)", k.lo, k.hi, lo, hi)
		}
		f := recordstore.Filter{SrcIP: b.filterIP(k.filter)}
		r := query.FlowsResponse{Flows: []query.FlowJSON{}}
		for i := k.lo; i < k.hi && !r.Limited; i++ {
			t0 := time.Now()
			ep, err := src.AppendEpochAt(i, buf[:0])
			d := time.Since(t0)
			if err != nil {
				return r, fmt.Errorf("epoch %d: %w", i, err)
			}
			buf = ep.Records
			if info != nil && info.EpochInfo(i).Tier == "hot" {
				st.hotNs, st.hotRecs = st.hotNs+int64(d), st.hotRecs+int64(len(buf))
			} else {
				st.coldNs, st.coldRecs = st.coldNs+int64(d), st.coldRecs+int64(len(buf))
			}
			r.EpochsScanned++
			for _, rec := range buf {
				if !f.Match(rec) {
					continue
				}
				r.Matched++
				if len(r.Flows) >= queryLimit {
					r.Limited = true
					break
				}
				r.Flows = append(r.Flows, query.FlowJSON{
					Epoch: i, Src: flow.IPString(rec.Key.SrcIP), Sport: rec.Key.SrcPort,
					Dst: flow.IPString(rec.Key.DstIP), Dport: rec.Key.DstPort,
					Proto: rec.Key.Proto, Packets: rec.Count,
				})
			}
		}
		expected[k] = r
		return r, nil
	}
	pkts := func(fs []query.FlowJSON) (n uint64) {
		for _, f := range fs {
			n += uint64(f.Packets)
		}
		return n
	}
	for i, s := range samples {
		res.attempted++
		st.checked++
		if s.status != http.StatusOK {
			res.fail("request %d (%s): status %d: %.200s", i, kindNames[s.kind], s.status, s.body)
			continue
		}
		switch s.kind {
		case kindCold, kindHot:
			var got query.FlowsResponse
			if err := json.Unmarshal(s.body, &got); err != nil {
				res.fail("request %d: body: %v", i, err)
				continue
			}
			want, err := reference(flowsKey{s.lo, s.hi, s.filter})
			if err != nil {
				res.fail("request %d: reference scan: %v", i, err)
				continue
			}
			st.wantPkts += pkts(want.Flows)
			st.gotPkts += pkts(got.Flows)
			if got.EpochsScanned != want.EpochsScanned || got.Matched != want.Matched ||
				got.Limited != want.Limited || got.RollupEpochs != 0 || !slices.Equal(got.Flows, want.Flows) {
				res.fail("request %d (%s epochs [%d,%d) filter %d): body differs from a direct scan: matched %d vs %d, %d vs %d flows",
					i, kindNames[s.kind], s.lo, s.hi, s.filter, got.Matched, want.Matched, len(got.Flows), len(want.Flows))
				continue
			}
			if want.Matched == 0 || want.Limited {
				res.fail("request %d: filter %d matches %d records in [%d,%d) (limited %v): the query must scan its whole window and find something",
					i, s.filter, want.Matched, s.lo, s.hi, want.Limited)
				continue
			}
		case kindTopK:
			var got query.TopKResponse
			if err := json.Unmarshal(s.body, &got); err != nil || len(got.Flows) != 10 ||
				!slices.IsSortedFunc(got.Flows, func(a, b query.FlowJSON) int { return int(int64(b.Packets) - int64(a.Packets)) }) {
				res.fail("request %d: /v1/topk body is not 10 flows in descending order (%v)", i, err)
				continue
			}
		case kindEpochs:
			var got query.EpochsResponse
			ok := json.Unmarshal(s.body, &got) == nil && len(got.Epochs) == queryEpochsList && got.Limited
			for j := 0; ok && j < len(got.Epochs); j++ {
				ok = got.Epochs[j].Index == j && got.Epochs[j].Records == b.gen.size()
			}
			if !ok {
				res.fail("request %d: /v1/epochs did not list the first %d epochs with %d records each", i, queryEpochsList, b.gen.size())
				continue
			}
		}
		st.matched++
	}
	return st, nil
}

// timedHandler wraps the query handler's ServeHTTP: the server-side span of
// each request, child of the client's round-trip span.
type timedHandler struct {
	b     *queryBench
	inner http.Handler
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := spanID(h.b.cur.Load())
	name := "query.handler"
	if parent != noSpan {
		// Named after the client span's kind so the two pair up by name.
		name = "query.handler." + h.b.tr.name(parent)[len("query.request."):]
	}
	s := h.b.tr.begin(name, parent, h.b.tr.id(parent))
	h.b.handlerSpan.Store(int64(s))
	h.inner.ServeHTTP(w, r)
	h.b.handlerSpan.Store(int64(noSpan))
	h.b.tr.end(s)
}

// timedTopK wraps the live top-k source the /v1/topk handler snapshots.
type timedTopK struct {
	b     *queryBench
	inner *topk.Tracker
}

func (t *timedTopK) AppendTopK(dst []flow.Record, k int) []flow.Record {
	s := t.b.tr.begin("topk.snapshot", spanID(t.b.handlerSpan.Load()), k)
	dst = t.inner.AppendTopK(dst, k)
	t.b.tr.end(s)
	return dst
}

// timedOpener wraps the per-request store open and hands the handler a
// source whose scans are spans too.
func (b *queryBench) timedOpener(inner query.StoreOpener) query.StoreOpener {
	return func() (recordstore.EpochSource, func() error, error) {
		parent := spanID(b.handlerSpan.Load())
		s := b.tr.begin("recordstore.open", parent, 0)
		src, release, err := inner()
		b.tr.end(s)
		if err != nil {
			return nil, nil, err
		}
		return &timedSource{EpochSource: src, b: b, parent: parent}, release, nil
	}
}

// timedSource times the handler's calls into the EpochSource. It forwards
// the optional interfaces the handler type-asserts, so responses are the
// same bytes as without it.
type timedSource struct {
	recordstore.EpochSource
	b      *queryBench
	parent spanID
}

func (t *timedSource) AppendEpochAt(i int, dst []flow.Record) (recordstore.Epoch, error) {
	name := "recordstore.scan_cold"
	if t.EpochInfo(i).Tier == "hot" {
		name = "recordstore.scan_hot"
	}
	s := t.b.tr.begin(name, t.parent, i)
	ep, err := t.EpochSource.AppendEpochAt(i, dst)
	t.b.tr.end(s)
	return ep, err
}

func (t *timedSource) Range(t0, t1 time.Time) (int, int) {
	s := t.b.tr.begin("recordstore.range", t.parent, 0)
	lo, hi := t.EpochSource.Range(t0, t1)
	t.b.tr.end(s)
	return lo, hi
}

func (t *timedSource) EpochInfo(i int) recordstore.EpochInfo {
	if info, ok := t.EpochSource.(recordstore.InfoSource); ok {
		return info.EpochInfo(i)
	}
	return recordstore.EpochInfo{Tier: "hot"}
}

func (t *timedSource) Truncated() bool {
	ts, ok := t.EpochSource.(recordstore.TruncatedSource)
	return ok && ts.Truncated()
}

func (b *queryBench) layerMetrics(res *runOut, samples []sample, byKind [][]float64,
	ws writerStats, scan verifyStats, busyNs int64) {
	m := map[string]float64{}
	res.layer = m
	lt := b.tr.byName(0)
	spans := b.tr.spans

	m["query.client_flows_hot_ms_p50"] = median(byKind[kindHot])
	m["query.client_topk_ms_p50"] = median(byKind[kindTopK])
	m["query.handler_flows_cold_ms_p50"] = median(lt.dur["query.handler.flows_cold"])
	m["query.handler_flows_hot_ms_p50"] = median(lt.dur["query.handler.flows_hot"])
	m["query.handler_topk_us_p50"] = median(lt.dur["query.handler.topk"]) * 1e3
	m["query.handler_epochs_ms_p50"] = median(lt.dur["query.handler.epochs"])
	m["query.flows_cold_self_ms_p50"] = median(lt.self["query.handler.flows_cold"])
	// Round trip minus the handler it contains is the HTTP layer: the
	// client span's self time.
	var overheadUs, sizes []float64
	self := selfTimes(spans)
	for _, s := range samples {
		if s.span != noSpan {
			overheadUs = append(overheadUs, float64(self[s.span])/1e3)
		}
		sizes = append(sizes, float64(len(s.body)))
	}
	m["query.http_overhead_us_p50"] = median(overheadUs)
	m["query.resp_bytes_p50"] = median(sizes)
	m["query.writer_late_ms_p50"] = median(ws.lateMs)

	m["topk.snapshot_us_p50"] = median(lt.dur["topk.snapshot"]) * 1e3
	writeRecs := float64(len(ws.writeMs) * b.gen.size())
	if writeRecs > 0 {
		m["topk.add_ns_per_rec"] = sum(lt.dur["topk.add"]) * 1e6 / writeRecs
		m["recordstore.write_ns_per_rec"] = (sum(lt.dur["recordstore.write"]) - sum(ws.fsyncMs)) * 1e6 / writeRecs
	}
	m["recordstore.flush_ms_p50"] = median(lt.dur["recordstore.flush"])
	m["recordstore.fsync_ms_p50"] = median(ws.fsyncMs)
	m["recordstore.write_epoch_ms_p50"] = median(ws.writeMs)
	_, m["recordstore.write_epoch_ms_tail"] = tailPercentile(ws.writeMs)
	m["recordstore.open_ms_p50"] = median(lt.dur["recordstore.open"])
	m["recordstore.range_us_p50"] = median(lt.dur["recordstore.range"]) * 1e3
	// Scan cost per record from the handler's own scans (each decodes one
	// whole epoch); the oracle's repeat of them on the finished store stands
	// in when the run was too short to have any.
	perRec := func(name string, ns, recs int64) float64 {
		if d := lt.dur[name]; len(d) > 0 {
			return sum(d) * 1e6 / float64(len(d)*b.gen.size())
		}
		return float64(ns) / math.Max(float64(recs), 1)
	}
	m["recordstore.scan_hot_ns_per_rec"] = perRec("recordstore.scan_hot", scan.hotNs, scan.hotRecs)
	m["recordstore.scan_cold_ns_per_rec"] = perRec("recordstore.scan_cold", scan.coldNs, scan.coldRecs)
	compactionMetrics(m, b.compactions.stats, float64(b.gen.size()))

	// The client is the blocking path: whatever of the wall is not inside a
	// round trip is the harness building URLs and keeping samples.
	m["bench.unexplained_share"] = (res.wallS*1e9 - float64(busyNs)) / (res.wallS * 1e9)
}
