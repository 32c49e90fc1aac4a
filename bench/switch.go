package main

import (
	"fmt"
	"math"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/flow"
	"repro/flowmon"
	"repro/netflow"
	"repro/shard"
	"repro/trace"
)

// Switch-side sizes. The recorder is the paper's headline point: 1 MB of
// HashFlow, here as two 512 KiB shards, against 250 K flows per epoch
// (switch_mice) or a population that fits entirely (switch_elephants).
const (
	switchShards     = 2
	switchShardBytes = 512 << 10
	switchBatch      = 256  // collector.Ingestor batch, flowcollect's default
	switchChunk      = 4096 // packets handed to AddBatch per call
	miceFlows        = 250000
	elephantFlows    = 10000
	elephantEpochLen = 800000 // the Campus trace is replayed to about the mice epoch length
	heavyThreshold   = 50     // flows at least this big count towards count_accuracy
	avgPktBytes      = 700    // octet estimate flowcollect export uses
	maxSwitchEpochs  = 1 << 14
	// minSwitchEpochs keeps the per-epoch medians meaningful on a run cut
	// short (smoke tests, a very slow machine).
	minSwitchEpochs = 4
	// switchWarmup is how many epochs set-up runs before the timed section.
	switchWarmup = 1
)

// switchBench is one wired switch pipeline plus the truth it is scored
// against. Every epoch replays the same packets, so the per-epoch truth is
// one table.
type switchBench struct {
	tr   *tracer
	mice bool

	pkts      []flow.Packet
	flowIdx   map[flow.Key]int32
	trueCount []uint32
	heavy     int

	ing     *collector.Ingestor
	mgr     *adaptive.Manager
	batcher *timedBatcher
	shards  [2]*shard.Sharded
	outer   []*timedRecorder
	inner   []*timedRecorder
	ctx     *drainCtx

	// rotateAt[e] is when the ingest goroutine was about to feed the batch
	// that closes epoch e; written before the rotation's channel send, read
	// by the drain worker after the receive.
	rotateAt []time.Time

	// Drain-side state, owned by the drain worker until Manager.Close.
	seen      []uint32 // per flow: 1 + the last epoch that exported it
	tally     epochTally
	decBuf    []netflow.Record
	exportErr error
	epochs    []epochScore
	sendNs    int64 // traced run: time inside send during the current flush
	res       *runOut
}

// epochTally is what the in-memory collector stand-in (send) accumulates
// over one epoch's datagrams.
type epochTally struct {
	epoch     int
	decoded   digest
	covered   int
	heavyHit  int
	relErrSum float64
	wireBytes int
	datagrams int
}

// epochScore is one exported epoch, scored against the truth.
type epochScore struct {
	records   int
	fsc       float64
	hhARE     float64
	exportMs  float64 // rotation → last datagram decoded
	wireBytes int
	datagrams int
	flushMs   float64 // traced: the flush callback
	sendMs    float64 // traced: of which inside send
}

// timedBatcher times every UpdateBatch call into the adaptive manager (one
// clock pair per 256 packets).
type timedBatcher struct {
	inner collector.BatchRecorder
	calls uint64
	ns    int64
}

func (b *timedBatcher) UpdateBatch(pkts []flow.Packet) {
	t0 := time.Now()
	b.inner.UpdateBatch(pkts)
	b.ns += int64(time.Since(t0))
	b.calls++
}

func newSwitch(o options, tr *tracer, mice bool) (instance, error) {
	flows, prof := miceFlows, trace.CAIDA
	if !mice {
		flows, prof = elephantFlows, trace.Campus
	}
	if o.smoke {
		flows /= 20
	}
	t, err := trace.Generate(prof, flows, o.seed)
	if err != nil {
		return nil, err
	}
	pass := t.Packets(o.seed)
	replays := 1
	if !mice {
		target := elephantEpochLen
		if o.smoke {
			target /= 20
		}
		replays = max(1, int(math.Round(float64(target)/float64(len(pass)))))
	}
	b := &switchBench{tr: tr, mice: mice, res: &runOut{}}
	b.pkts = make([]flow.Packet, 0, len(pass)*replays)
	for i := 0; i < replays; i++ {
		b.pkts = append(b.pkts, pass...)
	}
	b.flowIdx = make(map[flow.Key]int32, len(t.Flows))
	b.trueCount = make([]uint32, len(t.Flows))
	for i, f := range t.Flows {
		b.flowIdx[f.Key] = int32(i)
		b.trueCount[i] = f.Count * uint32(replays)
		if b.trueCount[i] >= heavyThreshold {
			b.heavy++
		}
	}
	b.seen = make([]uint32, len(t.Flows))
	b.rotateAt = make([]time.Time, maxSwitchEpochs)
	b.epochs = make([]epochScore, 0, maxSwitchEpochs)
	if tr != nil {
		b.ctx = &drainCtx{tr: tr, epochSpan: make([]spanID, maxSwitchEpochs)}
	}

	// The wiring below mirrors `flowcollect export -epochpkts`: two
	// identically configured recorders behind a double-buffered manager
	// whose flush callback is the NetFlow epoch exporter, boundaries driven
	// by packet count with the cardinality watermark parked.
	for i := range b.shards {
		sh, err := shard.New(switchShards, func(s int) (flowmon.Recorder, error) {
			r, err := flowmon.NewHashFlow(flowmon.Config{
				MemoryBytes: switchShardBytes,
				Seed:        o.seed + uint64(s)*0x9E37,
			})
			if err != nil || tr == nil {
				return r, err
			}
			w := &timedRecorder{Recorder: r, ctx: b.ctx}
			b.inner = append(b.inner, w)
			return w, nil
		})
		if err != nil {
			return nil, err
		}
		b.shards[i] = sh
	}
	var active, standby flowmon.Recorder = b.shards[0], b.shards[1]
	if tr != nil {
		b.outer = []*timedRecorder{
			{Recorder: b.shards[0], ctx: b.ctx, outer: true},
			{Recorder: b.shards[1], ctx: b.ctx, outer: true},
		}
		active, standby = b.outer[0], b.outer[1]
	}
	exp := netflow.NewExporter(b.send)
	export := netflow.NewEpochExporter(nil, exp).FlushFunc(avgPktBytes, func(err error) {
		if b.exportErr == nil {
			b.exportErr = err
		}
	})
	b.mgr, err = adaptive.NewDoubleBuffered(active, standby, adaptive.Config{
		Capacity:        1,
		HighWatermark:   1,
		MaxEpochPackets: uint64(len(b.pkts)),
		CheckEvery:      1 << 62,
	}, func(epoch int, recs []flow.Record) { b.flush(epoch, recs, export) })
	if err != nil {
		return nil, err
	}
	var sink collector.BatchRecorder = b.mgr
	if tr != nil {
		b.batcher = &timedBatcher{inner: b.mgr}
		sink = b.batcher
	}
	b.ing, err = collector.NewIngestor(sink, switchBatch)
	if err != nil {
		return nil, err
	}
	// One untimed epoch through the whole pipeline: tables get touched, the
	// shard export workers start, every reused buffer grows to size.
	if _, err := b.feedEpoch(0); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *switchBench) cleanup() {
	if b.mgr != nil {
		b.mgr.Close()
	}
	for _, sh := range b.shards {
		if sh != nil {
			sh.Close()
		}
	}
}

// send is the exporter's transport: an in-memory collector stand-in that
// decodes each datagram and tallies its records against the truth. It runs
// on the drain worker, off the packet path, like a UDP write would.
func (b *switchBench) send(dgram []byte) error {
	var t0 time.Time
	if b.tr != nil {
		t0 = time.Now()
	}
	_, recs, err := netflow.DecodeAppend(b.decBuf[:0], dgram)
	if err != nil {
		return fmt.Errorf("decode exported datagram: %w", err)
	}
	b.decBuf = recs
	t := &b.tally
	t.datagrams++
	t.wireBytes += len(dgram)
	mark := uint32(t.epoch) + 1
	for _, r := range recs {
		fr := flow.Record{Key: r.Key(), Count: r.Packets}
		t.decoded.add(fr)
		i, ok := b.flowIdx[fr.Key]
		if !ok {
			b.res.fail("epoch %d: exported record %v x%d is not a flow of the trace", t.epoch, fr.Key, fr.Count)
			continue
		}
		if b.seen[i] == mark {
			b.res.fail("epoch %d: flow %v exported twice", t.epoch, fr.Key)
			continue
		}
		b.seen[i] = mark
		t.covered++
		if truth := b.trueCount[i]; truth >= heavyThreshold {
			t.heavyHit++
			t.relErrSum += math.Abs(float64(fr.Count)-float64(truth)) / float64(truth)
		}
	}
	if b.tr != nil {
		b.sendNs += int64(time.Since(t0))
	}
	return nil
}

// flush is the manager's flush callback: the NetFlow epoch exporter,
// bracketed by the oracle (decoded records == exported records) and the
// epoch's scoring.
func (b *switchBench) flush(epoch int, recs []flow.Record, export func(int, []flow.Record)) {
	b.tally = epochTally{epoch: epoch}
	b.sendNs = 0
	exported := digestOf(recs)
	parent := noSpan
	if b.ctx != nil {
		parent = b.ctx.drain
	}
	s := b.tr.begin("netflow.flush", parent, epoch)
	t0 := time.Now()
	export(epoch, recs)
	done := time.Now()
	b.tr.end(s)

	b.res.attempted += int64(len(recs)) + 1
	if b.tally.decoded != exported {
		b.res.fail("epoch %d: decoded %+v != exported %+v", epoch, b.tally.decoded, exported)
	}
	sc := epochScore{
		records:   len(recs),
		fsc:       float64(b.tally.covered) / float64(len(b.trueCount)),
		wireBytes: b.tally.wireBytes,
		datagrams: b.tally.datagrams,
		flushMs:   float64(done.Sub(t0)) / 1e6,
		sendMs:    float64(b.sendNs) / 1e6,
	}
	if b.heavy > 0 {
		// A heavy flow that was not exported at all has relative error 1.
		sc.hhARE = (b.tally.relErrSum + float64(b.heavy-b.tally.heavyHit)) / float64(b.heavy)
	}
	if epoch < len(b.rotateAt) {
		sc.exportMs = float64(done.Sub(b.rotateAt[epoch])) / 1e6
	}
	b.epochs = append(b.epochs, sc)
}

// passTiming is the ingest side's view of one epoch.
type passTiming struct {
	passS    float64 // first packet in → rotation done
	closeUs  float64 // traced: the closing AddBatch+Flush, which holds the rotation
	ingestNs int64   // traced: time inside every AddBatch of the pass
}

// feedEpoch replays the epoch's packets through the ingestor. The pass ends
// exactly on the manager's packet-count boundary, so the rotation to epoch
// e+1 happens inside its closing batch.
func (b *switchBench) feedEpoch(e int) (passTiming, error) {
	var pt passTiming
	n := len(b.pkts)
	// The closing segment is the last batch of the pass: timing it gives the
	// stall the packet path sees at rotation.
	closing := n - (n-1)%switchBatch - 1
	passStart := time.Now()
	var es spanID
	if b.tr != nil {
		es = b.tr.begin("switch.epoch", noSpan, e)
		b.ctx.epochSpan[e] = es
		for i := 0; i < closing; i += switchChunk {
			t0 := time.Now()
			b.ing.AddBatch(b.pkts[i:min(i+switchChunk, closing)])
			pt.ingestNs += int64(time.Since(t0))
		}
	} else {
		for i := 0; i < closing; i += switchChunk {
			b.ing.AddBatch(b.pkts[i:min(i+switchChunk, closing)])
		}
	}
	b.rotateAt[e] = time.Now()
	rs := b.tr.begin("adaptive.rotate", es, e)
	b.ing.AddBatch(b.pkts[closing:])
	b.ing.Flush()
	b.tr.end(rs)
	b.tr.end(es)
	now := time.Now()
	if b.tr != nil {
		d := now.Sub(b.rotateAt[e])
		pt.closeUs = float64(d) / 1e3
		pt.ingestNs += int64(d)
	}
	pt.passS = now.Sub(passStart).Seconds()
	if got := b.mgr.Epoch(); got != e+1 {
		return pt, fmt.Errorf("epoch %d: manager is at epoch %d, the pass did not rotate exactly once", e, got)
	}
	return pt, nil
}

func (b *switchBench) run(seconds float64) (*runOut, error) {
	res := b.res
	res.unit = "packet"
	res.latWhat = "epoch export: ingest about to close the epoch → its last datagram decoded"
	n := len(b.pkts)
	var (
		passS    []float64
		closeUs  []float64
		ingestNs int64
	)
	// The per-packet counters start from zero here so that they cover the
	// timed epochs only; the ingest goroutine (this one) is their only writer.
	if b.tr != nil {
		*b.batcher = timedBatcher{inner: b.mgr}
		for _, w := range append(b.outer, b.inner...) {
			w.upd, w.batch = callTimer{}, callTimer{}
		}
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	for e := switchWarmup; e < maxSwitchEpochs; e++ {
		if e >= switchWarmup+minSwitchEpochs && time.Since(start).Seconds() >= seconds {
			break
		}
		pt, err := b.feedEpoch(e)
		if err != nil {
			return nil, err
		}
		passS = append(passS, pt.passS)
		cpu1 := cpuSeconds()
		res.cpuUs = append(res.cpuUs, (cpu1-cpu0)*1e6/float64(n))
		cpu0 = cpu1
		closeUs = append(closeUs, pt.closeUs)
		ingestNs += pt.ingestNs
	}
	closeStart := time.Now()
	b.mgr.Close()
	end := time.Now()
	res.wallS = end.Sub(start).Seconds()

	epochs := len(passS)
	res.units = float64(epochs * n)
	if err := b.mgr.DrainErr(); err != nil {
		res.fail("drain: %v", err)
	}
	if b.exportErr != nil {
		res.fail("export: %v", b.exportErr)
	}
	if len(b.epochs) != switchWarmup+epochs {
		res.fail("%d epochs ingested but %d exported", switchWarmup+epochs, len(b.epochs))
	}
	b.epochs = b.epochs[min(switchWarmup, len(b.epochs)):] // set-up's warm-up epoch is not scored
	var fsc, are, wire, recs float64
	for i, sc := range b.epochs {
		fsc += sc.fsc
		are += sc.hhARE
		wire += float64(sc.wireBytes)
		recs += float64(sc.records)
		res.latMs = append(res.latMs, sc.exportMs)
		if i < len(passS) {
			res.rates = append(res.rates, float64(n)/passS[i])
		}
	}
	k := float64(max(len(b.epochs), 1))
	res.coverage = fsc / k
	res.countAccuracy = 1 - are/k
	res.bytesPerRec = wire / math.Max(recs, 1)
	if !b.mice && res.coverage < 0.99 {
		res.fail("switch_elephants coverage %.4f < 0.99: a population that fits must be recorded whole", res.coverage)
	}
	res.notes = append(res.notes,
		fmt.Sprintf("%d epochs of %d packets, %d true flows (%d heavy), %.0f records/epoch; fsc %.6f, hh_are %.6f",
			epochs, n, len(b.trueCount), b.heavy, recs/k, res.coverage, are/k))
	if b.tr != nil {
		b.layerMetrics(res, closeUs, ingestNs, end.Sub(closeStart))
	}
	return res, nil
}

// layerMetrics derives the traced run's per-layer numbers for the switch
// pipeline from the wrappers' counters and the drain spans.
func (b *switchBench) layerMetrics(res *runOut, closeUs []float64, ingestNs int64, closeWait time.Duration) {
	m := map[string]float64{}
	res.layer = m
	pkts := res.units
	var recs, dgrams, wire, flushMs, sendMs float64
	for _, sc := range b.epochs {
		recs += float64(sc.records)
		dgrams += float64(sc.datagrams)
		wire += float64(sc.wireBytes)
		flushMs += sc.flushMs
		sendMs += sc.sendMs
	}
	epochs := float64(max(len(b.epochs), 1))
	recs = math.Max(recs, 1)

	// Per-packet path: the chunk loop contains the ingestor, which contains
	// the manager, which contains the shard router, which contains HashFlow.
	// Each level's self time is its total minus the level below.
	var shardNs, coreNs, shardCalls float64
	var ops flow.OpStats
	var perShard [switchShards]float64
	for _, w := range b.outer {
		shardNs += w.upd.totalNs() + w.batch.totalNs()
		shardCalls += float64(w.upd.calls + w.batch.calls)
	}
	for i, w := range b.inner {
		coreNs += w.upd.totalNs() + w.batch.totalNs()
		ops = ops.Add(w.ops)
		perShard[i%switchShards] += float64(w.ops.Packets)
	}
	mgrNs := float64(b.batcher.ns)
	m["collector.ingest_self_ns_per_pkt"] = (float64(ingestNs) - mgrNs) / pkts
	m["adaptive.ingest_self_ns_per_pkt"] = (mgrNs - shardNs) / pkts
	m["shard.route_self_ns_per_pkt"] = (shardNs - coreNs) / pkts
	m["shard.calls_per_kpkt"] = shardCalls / pkts * 1000
	m["core.update_ns_per_pkt"] = coreNs / pkts
	m["core.hashes_per_pkt"] = ops.HashesPerPacket()
	m["core.mem_accesses_per_pkt"] = ops.MemAccessesPerPacket()
	m["core.records_per_epoch"] = recs / epochs
	if mean := (perShard[0] + perShard[1]) / switchShards; mean > 0 {
		m["shard.skew_ratio"] = math.Max(perShard[0], perShard[1]) / mean
	}

	// The rotation stall is what the closing segment costs beyond an
	// ordinary batch of the same size.
	ordinaryUs := mgrNs / math.Max(float64(b.batcher.calls), 1) / 1e3
	stalls := make([]float64, len(closeUs))
	for i, c := range closeUs {
		stalls[i] = math.Max(c-ordinaryUs, 0)
	}
	m["adaptive.rotate_stall_us_p50"] = median(stalls)
	m["adaptive.rotate_stall_us_max"] = quantileSorted(sorted(stalls), 1)

	// Drain path, from the spans.
	lt := b.tr.byName(switchWarmup)
	drainMs := sum(lt.dur["adaptive.drain"])
	m["adaptive.drain_ms_p50"] = median(lt.dur["adaptive.drain"])
	m["adaptive.drain_busy_share"] = drainMs / 1e3 / res.wallS
	m["shard.export_self_ns_per_rec"] = sum(lt.self["shard.export"]) * 1e6 / recs
	m["core.append_records_ns_per_rec"] = sum(lt.dur["core.append_records"]) * 1e6 / recs
	m["core.reset_us_per_epoch"] = sum(lt.dur["core.reset"]) * 1e3 / epochs
	m["netflow.encode_ns_per_rec"] = (flushMs - sendMs) * 1e6 / recs
	m["netflow.wire_bytes_per_rec"] = wire / recs
	m["netflow.datagrams_per_epoch"] = dgrams / epochs
	// The stand-in collector's decode is netflow.DecodeAppend on exactly the
	// exported datagrams; its tally of the truth rides in the same figure.
	m["netflow.decode_ns_per_rec"] = sendMs * 1e6 / recs

	// The blocking path is the ingest loop plus the final wait for the last
	// drain; whatever of the wall that leaves is the harness's own.
	m["bench.unexplained_share"] = (res.wallS*1e9 - float64(ingestNs) - float64(closeWait)) / (res.wallS * 1e9)
}
