package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/netflow"
	"repro/query"
	"repro/recordstore"
	"repro/topk"
)

// Collector-side sizes.
const (
	collectStreams    = 4
	collectPersistent = 40000
	collectChurn      = 8000
	collectGap        = 50 * time.Millisecond
	// collectWindow is the most datagrams in flight. 128 full datagrams are
	// about 300 KB of socket-buffer truesize, under the ~416 KB a socket
	// gets when net.core.rmem_max is the 208 KiB default and the collector's
	// 4 MiB request is clamped — so zero loss holds by construction even
	// there.
	collectWindow   = 128
	collectHot      = 16
	collectCompact  = 16
	collectWarmup   = 1    // epochs set-up publishes before the timed section
	collectTopK     = 4096 // flowcollect serve's default tracker capacity
	minCollectEpoch = 16   // every run reaches all three spikes
	ackTimeout      = 2 * time.Second
	sinkTimeout     = 10 * time.Second
	// alertPrefix is how many leading epochs detect.alerts counts, so the
	// count is the same however many epochs a run has time for.
	alertPrefix = 16
)

// sinkReport is what the collector's epoch goroutine hands back to the
// sender for one published epoch.
type sinkReport struct {
	epoch     int
	entry     time.Time
	done      time.Time
	got       digest
	alerts    int
	spikeSeen bool
	fsyncNs   int64
	listed    bool
	errText   string
}

// collectBench is the wired collector pipeline: loopback UDP → collector →
// top-k tracker → tiered store (fsync per epoch, auto-compaction) → detect
// → a /v1/epochs call confirming the epoch is visible, as `flowcollect
// serve -http -detect` composes its sink.
type collectBench struct {
	tr   *tracer
	gen  *recGen
	dir  string
	gap  time.Duration // the collector's EpochGap
	sent []digest      // per epoch, what was offered

	tiered   *recordstore.Tiered
	store    *collector.EpochStore
	tracker  *topk.Tracker
	detector *detect.Detector
	handler  http.Handler
	srv      *collector.Server
	conns    []*net.UDPConn
	exps     []*netflow.Exporter
	sets     []dgramSet
	sender   *windowSender

	reports chan sinkReport
	epoch   int // sink side: index of the epoch being published

	compactions compactLog

	recBuf    []flow.Record
	perStream [collectStreams][]flow.Record
	openMs    []float64 // traced: recordstore.Open on the live store
	decodeNs  int64     // traced: netflow.DecodeAppend probe
	ingestNs  int64     // traced: Collector.IngestFrom + AppendFlowRecords probe
	probeRec  int64
	probeCol  *netflow.Collector
	probeDec  []netflow.Record
	probeRecs []flow.Record

	res          *runOut
	warmupAlerts int
}

func newCollect(o options, tr *tracer) (instance, error) {
	b := &collectBench{tr: tr, dir: filepath.Join(o.dir, "store"), reports: make(chan sinkReport, 1), res: &runOut{}}
	persistent, churn := collectPersistent, collectChurn
	b.gap = collectGap
	if o.smoke {
		persistent, churn, b.gap = persistent/20, churn/20, collectGap/5
	}
	b.gen = newRecGen(o.seed, persistent, churn)

	var err error
	b.tiered, _, err = recordstore.OpenTiered(b.dir, recordstore.TieredOptions{
		HotEpochs:    collectHot,
		CompactEvery: collectCompact,
		Sync:         recordstore.SyncPolicy{Mode: recordstore.SyncEachEpoch},
		OnCompact:    b.compactions.observe,
	})
	if err != nil {
		return nil, err
	}
	b.store = collector.NewEpochStore(b.tiered)
	if b.tracker, err = topk.NewTracker(collectTopK); err != nil {
		return nil, err
	}
	if b.detector, err = detect.NewDetector(detect.Config{}); err != nil {
		return nil, err
	}
	b.handler = query.NewHandler(query.Config{
		TopK:   b.tracker,
		Store:  query.FileStore(b.dir),
		Alerts: b.detector,
	})
	b.srv, err = collector.Start(collector.Config{
		Listen:   "127.0.0.1:0",
		EpochGap: b.gap,
		Readers:  1,
	}, b.sink)
	if err != nil {
		return nil, err
	}
	addr := b.srv.Addr().(*net.UDPAddr)
	b.sets = make([]dgramSet, collectStreams)
	for s := 0; s < collectStreams; s++ {
		c, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			return nil, err
		}
		b.conns = append(b.conns, c)
		set := &b.sets[s]
		b.exps = append(b.exps, netflow.NewExporter(set.add))
	}
	b.sender = &windowSender{
		write: func(s int, d []byte) error {
			_, err := b.conns[s].Write(d)
			return err
		},
		acked:   func() uint64 { return b.srv.Stats().Datagrams },
		window:  collectWindow,
		timeout: ackTimeout,
	}
	if err := b.encode(0); err != nil {
		return nil, err
	}
	if tr != nil {
		b.probeCol = netflow.NewCollector()
	}
	// One untimed epoch through the whole pipeline: the collector's record
	// buffers, the store's scratch and detect's tables grow to size.
	et, ok := b.oneEpoch(0, b.res)
	if !ok {
		return nil, fmt.Errorf("warm-up epoch: %s", b.res.failures[0])
	}
	b.warmupAlerts = et.alerts
	return b, nil
}

func (b *collectBench) cleanup() {
	for _, c := range b.conns {
		c.Close()
	}
	if b.srv != nil {
		b.srv.Shutdown()
	}
	if b.tiered != nil {
		b.tiered.Close() // a second Close after run's is harmless
	}
}

// compactLog collects the store's compaction passes: automatic ones arrive
// on the compaction goroutine through TieredOptions.OnCompact, explicit ones
// are added by whoever called Compact.
type compactLog struct {
	mu    sync.Mutex
	stats []recordstore.CompactStats
	err   error
}

func (l *compactLog) observe(cs recordstore.CompactStats, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err != nil && l.err == nil {
		l.err = err
	}
	if err == nil && cs.Migrated > 0 {
		l.stats = append(l.stats, cs)
	}
}

// finish runs the shutdown-time compaction and close, as flowcollect does,
// counting what goes wrong as failures.
func (l *compactLog) finish(t *recordstore.Tiered, res *runOut) {
	final, err := t.Compact()
	l.observe(final, err)
	if err := t.Close(); err != nil {
		res.fail("store close: %v", err)
	}
	if l.err != nil {
		res.fail("compaction: %v", l.err)
	}
}

// encode generates epoch e's records and encodes them into the streams'
// datagram sets with the streams' own exporters, so sequence numbers run on
// across epochs as a real exporter's do. Record i goes to stream i mod 4.
func (b *collectBench) encode(e int) error {
	b.recBuf = b.gen.epoch(e, b.recBuf[:0])
	b.sent = append(b.sent, digestOf(b.recBuf))
	for s := range b.perStream {
		b.perStream[s] = b.perStream[s][:0]
	}
	for i, r := range b.recBuf {
		b.perStream[i%collectStreams] = append(b.perStream[i%collectStreams], r)
	}
	for s, exp := range b.exps {
		b.sets[s].reset()
		if err := exp.Export(b.perStream[s], avgPktBytes); err != nil {
			return err
		}
	}
	return nil
}

// probe measures the decode layers directly on stream 0's datagrams for the
// coming epoch — the same bytes the collector is about to receive — while
// the collector sits in its quiet gap.
func (b *collectBench) probe() {
	col, dec, recs := b.probeCol, b.probeDec, b.probeRecs
	set := &b.sets[0]
	src := netip.MustParseAddrPort("127.0.0.1:9")
	t0 := time.Now()
	for i := 0; i < set.n(); i++ {
		_, out, err := netflow.DecodeAppend(dec[:0], set.at(i))
		if err == nil {
			dec = out
		}
	}
	t1 := time.Now()
	for i := 0; i < set.n(); i++ {
		_ = col.IngestFrom(src, set.at(i)) // the untimed path already counts undecodable datagrams
	}
	recs = col.AppendFlowRecords(recs[:0])
	col.Reset()
	t2 := time.Now()
	b.decodeNs += int64(t1.Sub(t0))
	b.ingestNs += int64(t2.Sub(t1))
	b.probeRec += int64(len(recs))
	b.probeDec, b.probeRecs = dec, recs
}

// sink is the collector's epoch sink, composed as `flowcollect serve` does:
// tracker, store write, flush, detect — then one /v1/epochs call proving the
// epoch is listed. It runs on the collector's epoch goroutine.
func (b *collectBench) sink(ts time.Time, records []flow.Record) {
	e := b.epoch
	b.epoch++
	rep := sinkReport{epoch: e, entry: time.Now()}
	root := b.tr.begin("collect.publish", noSpan, e)
	stage := func(name string, fn func()) {
		s := b.tr.begin(name, root, e)
		fn()
		b.tr.end(s)
	}
	stage("topk.add", func() { b.tracker.AddRecords(records) })
	stage("recordstore.write", func() { b.store.Sink(ts, records) })
	rep.fsyncNs = b.tiered.LastFsyncNs()
	stage("recordstore.flush", func() {
		if err := b.store.Flush(); err != nil {
			rep.errText = "store flush: " + err.Error()
		}
	})
	stage("detect.observe", func() {
		alerts := b.detector.Observe(e, ts, records)
		rep.alerts = len(alerts)
		for i, se := range spikeEpochs {
			if se != e {
				continue
			}
			for _, a := range alerts {
				if a.Kind == detect.KindHeavyChange && a.Key == b.gen.spikeKey(i) {
					rep.spikeSeen = true
				}
			}
		}
	})
	stage("query.handler_epochs", func() {
		q := url.Values{"from": {ts.UTC().Format(time.RFC3339Nano)}}
		req := httptest.NewRequest(http.MethodGet, "/v1/epochs?"+q.Encode(), nil)
		w := httptest.NewRecorder()
		b.handler.ServeHTTP(w, req)
		var resp query.EpochsResponse
		if w.Code != http.StatusOK {
			rep.errText = fmt.Sprintf("/v1/epochs: status %d: %s", w.Code, w.Body.String())
		} else if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			rep.errText = "/v1/epochs: " + err.Error()
		} else if n := len(resp.Epochs); n > 0 {
			last := resp.Epochs[n-1]
			rep.listed = last.Index == e && last.Records == len(records)
		}
	})
	b.tr.end(root)
	rep.done = time.Now()
	rep.got = digestOf(records)
	if b.tr != nil {
		// Outside the publish span: the per-request open the handler just
		// paid, measured on its own.
		t0 := time.Now()
		if src, err := recordstore.Open(b.dir); err == nil {
			src.Close()
			b.openMs = append(b.openMs, float64(time.Since(t0))/1e6)
		}
	}
	select {
	case b.reports <- rep:
	default:
		// Only when the sender gave up on an earlier epoch and left its
		// report unread; blocking here would wedge the collector's shutdown.
	}
}

// epochTiming is the sender's view of one published epoch, in milliseconds.
type epochTiming struct {
	recvMs, lagMs, publishMs, fsyncMs float64
	blockedNs                         int64 // send window + wait for the publish
	alerts                            int
}

// oneEpoch offers epoch e (already encoded) to the collector, encodes epoch
// e+1 during the quiet gap, waits for e to be published and checks it. It
// reports false when the epoch was not published at all.
func (b *collectBench) oneEpoch(e int, res *runOut) (epochTiming, bool) {
	var et epochTiming
	res.attempted += int64(b.gen.size()) + 1
	rs := b.tr.begin("collector.recv", noSpan, e)
	t0 := time.Now()
	err := b.sender.sendEpoch(b.sets)
	acked := time.Now()
	b.tr.end(rs)
	if err != nil {
		res.fail("epoch %d: %v", e, err)
	}
	et.recvMs = float64(acked.Sub(t0)) / 1e6

	// The quiet gap: encode the next epoch (and probe the decode layers on
	// it) while the collector waits out EpochGap.
	if err := b.encode(e + 1); err != nil {
		res.fail("encode epoch %d: %v", e+1, err)
		return et, false
	}
	if b.tr != nil {
		b.probe()
	}
	var rep sinkReport
	select {
	case rep = <-b.reports:
	case <-time.After(sinkTimeout):
		res.fail("epoch %d: not published within %v", e, sinkTimeout)
		return et, false
	}
	et.blockedNs = int64(time.Since(t0))
	if b.tr != nil {
		b.tr.add("collector.flush_wait", rs, e, int64(acked.Sub(b.tr.origin)), int64(rep.entry.Sub(b.tr.origin)))
	}
	switch {
	case rep.errText != "":
		res.fail("epoch %d: %s", e, rep.errText)
	case rep.epoch != e:
		res.fail("epoch %d: sink published epoch %d", e, rep.epoch)
	case rep.got != b.sent[e]:
		res.fail("epoch %d: collected %+v != sent %+v", e, rep.got, b.sent[e])
	case !rep.listed:
		res.fail("epoch %d: not listed by /v1/epochs after publish", e)
	}
	for _, se := range spikeEpochs {
		if se == e && !rep.spikeSeen {
			res.fail("epoch %d: seeded spike raised no heavy-change alert", e)
		}
	}
	et.alerts = rep.alerts
	et.publishMs = float64(rep.done.Sub(rep.entry)) / 1e6
	et.lagMs = float64(rep.entry.Sub(acked)-b.gap) / 1e6
	et.fsyncMs = float64(rep.fsyncNs) / 1e6
	return et, true
}

func (b *collectBench) run(seconds float64) (*runOut, error) {
	res := b.res
	res.unit = "record"
	res.latWhat = "epoch publish: sink entry → written, fsynced, observed by detect and listed by /v1/epochs"
	var (
		recvMs, lagMs    []float64
		publishMs, fsync []float64
		blockedNs        int64
	)
	alerts := b.warmupAlerts
	perEpoch := float64(b.gen.size())
	cpu0 := cpuSeconds()
	start := time.Now()
	epochs := 0
	for e := collectWarmup; ; e++ {
		if e >= minCollectEpoch && time.Since(start).Seconds() >= seconds {
			break
		}
		epochs++
		et, ok := b.oneEpoch(e, res)
		if !ok {
			continue
		}
		cpu1 := cpuSeconds()
		res.cpuUs = append(res.cpuUs, (cpu1-cpu0)*1e6/perEpoch)
		cpu0 = cpu1
		recvMs = append(recvMs, et.recvMs)
		// Receive and publish, the quiet gap between them left out. The
		// receive window alone (collector.recv_recs_per_s) is a per-layer
		// metric: sender and reader run on the box's two cores at once, and
		// its rate moved 18–44 % between runs of the same code with the host.
		res.rates = append(res.rates, perEpoch/((et.recvMs+et.publishMs)/1e3))
		blockedNs += et.blockedNs
		if e < alertPrefix {
			alerts += et.alerts
		}
		publishMs = append(publishMs, et.publishMs)
		lagMs = append(lagMs, et.lagMs)
		fsync = append(fsync, et.fsyncMs)
	}
	res.wallS = time.Since(start).Seconds()
	res.units = perEpoch * float64(epochs)
	res.latMs = publishMs
	epochs += collectWarmup // the store also holds set-up's warm-up epoch

	// Shut down in flowcollect's order: stop ingest, final compaction, sync.
	b.srv.Shutdown()
	st := b.srv.Stats()
	if st.Lost > 0 || st.BadData > 0 {
		res.fail("collector reports %d lost records, %d undecodable datagrams", st.Lost, st.BadData)
	}
	if err := b.store.Err(); err != nil {
		res.fail("store: %v (%d epochs dropped)", err, b.store.Dropped())
	}
	b.compactions.finish(b.tiered, res)

	// Read everything back through the one read constructor and compare with
	// what was sent.
	scan, err := b.readBack(res, epochs)
	if err != nil {
		return nil, err
	}
	bytes, err := dirBytes(b.dir)
	if err != nil {
		return nil, err
	}
	res.bytesPerRec = float64(bytes) / math.Max(float64(scan.sentRecs), 1)
	res.coverage = float64(scan.matchedRecs) / math.Max(float64(scan.sentRecs), 1)
	res.countAccuracy = 1 - math.Abs(float64(scan.storedPkts)-float64(scan.sentPkts))/math.Max(float64(scan.sentPkts), 1)
	res.notes = append(res.notes,
		fmt.Sprintf("%d timed epochs of %.0f records over %d streams, window %d; recv window median %.3f ms (%.4g records/s), flush lag beyond the %v gap median %.3f ms; %d alerts in the first %d epochs; %d compactions",
			len(publishMs), perEpoch, collectStreams, collectWindow, median(recvMs), perEpoch*1e3/median(recvMs), b.gap, median(lagMs), alerts, alertPrefix, len(b.compactions.stats)))
	if b.tr != nil {
		b.layerMetrics(res, st, scan, recvMs, lagMs, fsync, alerts, blockedNs)
	}
	return res, nil
}

// readBackStats is the store-contents oracle's tally.
type readBackStats struct {
	sentRecs, matchedRecs uint64
	sentPkts, storedPkts  uint64
	hotNs, coldNs         int64
	hotRecs, coldRecs     int64
}

// readBack opens the finished store with recordstore.Open and checks epoch
// by epoch that it holds exactly the records that were sent.
func (b *collectBench) readBack(res *runOut, epochs int) (readBackStats, error) {
	var st readBackStats
	src, err := recordstore.Open(b.dir)
	if err != nil {
		return st, fmt.Errorf("open finished store: %w", err)
	}
	defer src.Close()
	res.attempted += int64(epochs)
	if src.Epochs() != epochs {
		res.fail("store holds %d epochs, %d were sent", src.Epochs(), epochs)
	}
	info, _ := src.(recordstore.InfoSource)
	var buf []flow.Record
	for i := 0; i < epochs; i++ {
		st.sentRecs += b.sent[i].records
		st.sentPkts += b.sent[i].packets
		if i >= src.Epochs() {
			continue
		}
		t0 := time.Now()
		ep, err := src.AppendEpochAt(i, buf[:0])
		d := time.Since(t0)
		if err != nil {
			res.fail("read back epoch %d: %v", i, err)
			continue
		}
		buf = ep.Records
		if info != nil && info.EpochInfo(i).Tier == "hot" {
			st.hotNs, st.hotRecs = st.hotNs+int64(d), st.hotRecs+int64(len(ep.Records))
		} else {
			st.coldNs, st.coldRecs = st.coldNs+int64(d), st.coldRecs+int64(len(ep.Records))
		}
		got := digestOf(ep.Records)
		st.storedPkts += got.packets
		if got != b.sent[i] {
			res.fail("stored epoch %d %+v != sent %+v", i, got, b.sent[i])
			continue
		}
		st.matchedRecs += got.records
	}
	return st, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

// compactionMetrics folds the observed compaction passes into the
// recordstore tier metrics; recsPerEpoch converts migrated epochs to records.
func compactionMetrics(m map[string]float64, cs []recordstore.CompactStats, recsPerEpoch float64) {
	var raw, seg, recs float64
	var stalls []float64
	for _, c := range cs {
		raw += float64(c.RawBytes)
		seg += float64(c.SegmentBytes)
		recs += float64(c.Migrated) * recsPerEpoch
		stalls = append(stalls, float64(c.StallNs)/1e6)
	}
	if recs > 0 {
		m["recordstore.hot_bytes_per_rec"] = raw / recs
		m["recordstore.cold_bytes_per_rec"] = seg / recs
	}
	if seg > 0 {
		m["recordstore.compact_ratio"] = raw / seg
	}
	if len(stalls) > 0 {
		m["recordstore.compact_stall_ms_p50"] = median(stalls)
		m["recordstore.compact_stall_ms_max"] = quantileSorted(sorted(stalls), 1)
	}
}

func (b *collectBench) layerMetrics(res *runOut, st collector.Stats, scan readBackStats,
	recvMs, lagMs, fsync []float64, alerts int, blockedNs int64) {
	m := map[string]float64{}
	res.layer = m
	recs := res.units
	lt := b.tr.byName(collectWarmup)

	if b.probeRec > 0 {
		m["netflow.decode_ns_per_rec"] = float64(b.decodeNs) / float64(b.probeRec)
		m["netflow.ingest_ns_per_rec"] = float64(b.ingestNs) / float64(b.probeRec)
	}
	m["netflow.wire_bytes_per_rec"] = float64(netflow.HeaderLen)/netflow.MaxRecordsPerDatagram + netflow.RecordLen
	m["netflow.datagrams_per_epoch"] = float64(st.Datagrams) / math.Max(float64(st.Epochs), 1)
	m["collector.recv_self_ns_per_rec"] = sum(recvMs)*1e6/recs - m["netflow.ingest_ns_per_rec"]
	m["collector.recv_recs_per_s"] = float64(b.gen.size()) * 1e3 / median(recvMs)
	for _, rs := range b.srv.ReaderStats() {
		if rs.Batches > 0 {
			m["collector.dgrams_per_wakeup"] = float64(rs.Datagrams) / float64(rs.Batches)
		}
	}
	m["collector.flush_lag_ms_p50"] = median(lagMs)
	m["collector.lost_records"] = float64(st.Lost)
	m["collector.bad_datagrams"] = float64(st.BadData)

	writeMs, fsyncMs := sum(lt.dur["recordstore.write"]), sum(fsync)
	m["recordstore.write_ns_per_rec"] = (writeMs - fsyncMs) * 1e6 / recs
	m["recordstore.flush_ms_p50"] = median(lt.dur["recordstore.flush"])
	m["recordstore.fsync_ms_p50"] = median(fsync)
	m["recordstore.write_epoch_ms_p50"] = median(lt.dur["recordstore.write"])
	_, m["recordstore.write_epoch_ms_tail"] = tailPercentile(lt.dur["recordstore.write"])
	m["recordstore.open_ms_p50"] = median(b.openMs)
	if scan.hotRecs > 0 {
		m["recordstore.scan_hot_ns_per_rec"] = float64(scan.hotNs) / float64(scan.hotRecs)
	}
	if scan.coldRecs > 0 {
		m["recordstore.scan_cold_ns_per_rec"] = float64(scan.coldNs) / float64(scan.coldRecs)
	}
	compactionMetrics(m, b.compactions.stats, float64(b.gen.size()))

	m["detect.observe_ns_per_rec"] = sum(lt.dur["detect.observe"]) * 1e6 / recs
	m["detect.alerts"] = float64(alerts)
	m["topk.add_ns_per_rec"] = sum(lt.dur["topk.add"]) * 1e6 / recs
	m["query.handler_epochs_ms_p50"] = median(lt.dur["query.handler_epochs"])

	// Blocking path per epoch: the send window, then the wait for the gap to
	// close and the publish to finish. The rest of the wall is the harness.
	m["bench.unexplained_share"] = (res.wallS*1e9 - float64(blockedNs)) / (res.wallS * 1e9)
}
