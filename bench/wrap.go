package main

import (
	"time"

	"repro/flow"
	"repro/flowmon"
)

// drainCtx links the spans of one epoch's drain. adaptive's drain worker
// calls AppendRecords, the flush callback and Reset on the drained recorder
// in that order on one goroutine, so the context needs no lock of its own;
// the shard export workers read export only after the channel send that
// wakes them, which orders the read after the write.
type drainCtx struct {
	tr        *tracer
	epochSpan []spanID // ingest-side epoch span per epoch: the drain's cause
	epoch     int      // epoch being drained
	drain     spanID   // adaptive.drain: AppendRecords entry → Reset exit
	export    spanID   // shard.export, parent of the per-shard core.append
	reset     spanID   // shard.reset, parent of the per-shard core.reset
}

// timedRecorder wraps a flowmon.Recorder at one layer boundary. Per-packet
// calls are counted and sampled (callTimer); the per-epoch calls of the
// drain path get spans. One type serves both boundaries the switch
// pipeline has: outer wraps the shard.Sharded handed to adaptive, inner
// wraps each shard's HashFlow handed to shard.New's factory.
type timedRecorder struct {
	flowmon.Recorder
	ctx   *drainCtx
	outer bool

	upd   callTimer // Update, sampled
	batch callTimer // UpdateBatch, sampled
	// ops accumulates the recorder's OpStats across epochs (Reset clears
	// the recorder's own).
	ops flow.OpStats
}

func (w *timedRecorder) Update(p flow.Packet) {
	if !w.upd.tick() {
		w.Recorder.Update(p)
		return
	}
	t0 := time.Now()
	w.Recorder.Update(p)
	w.upd.observe(time.Since(t0))
}

func (w *timedRecorder) UpdateBatch(pkts []flow.Packet) {
	if !w.batch.tick() {
		w.Recorder.UpdateBatch(pkts)
		return
	}
	t0 := time.Now()
	w.Recorder.UpdateBatch(pkts)
	w.batch.observe(time.Since(t0))
}

func (w *timedRecorder) AppendRecords(dst []flow.Record) []flow.Record {
	c := w.ctx
	var s spanID
	if w.outer {
		parent := noSpan
		if c.epoch < len(c.epochSpan) {
			parent = c.epochSpan[c.epoch]
		}
		c.drain = c.tr.begin("adaptive.drain", parent, c.epoch)
		c.export = c.tr.begin("shard.export", c.drain, c.epoch)
		s = c.export
	} else {
		s = c.tr.begin("core.append_records", c.export, c.epoch)
	}
	dst = w.Recorder.AppendRecords(dst)
	c.tr.end(s)
	return dst
}

func (w *timedRecorder) Reset() {
	c := w.ctx
	if !w.outer {
		w.ops = w.ops.Add(w.Recorder.OpStats())
		s := c.tr.begin("core.reset", c.reset, c.epoch)
		w.Recorder.Reset()
		c.tr.end(s)
		return
	}
	c.reset = c.tr.begin("shard.reset", c.drain, c.epoch)
	w.Recorder.Reset()
	c.tr.end(c.reset)
	c.tr.end(c.drain)
	c.epoch++
}
