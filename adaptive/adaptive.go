// Package adaptive makes flow collection adapt to traffic variation — the
// first of the two future-work directions the paper's conclusion names.
//
// A fixed measurement epoch wastes table capacity under light traffic and
// overflows under bursts. The adaptive Manager watches the recorder's load
// (its cardinality estimate against a configured capacity) and flushes an
// epoch early when the structure approaches saturation, so record accuracy
// is maintained across traffic swings without shrinking quiet-period
// epochs.
//
// The Manager is double-buffered: rotation swaps the full recorder for a
// reset standby and a background worker drains the completed epoch
// (extract, flush callback, observers, reset), so the packet path only
// pays for the swap.
package adaptive

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/flow"
	"repro/flowmon"
	"repro/telemetry"
)

// FlushFunc receives the records of a completed epoch. The recorder is
// reset after the callback returns. The records slice is owned by the
// manager and reused for the next epoch: callbacks must not retain it
// beyond the call (copy if needed), the same contract as collector.Sink.
type FlushFunc func(epoch int, records []flow.Record)

// EpochObserver consumes each drained epoch's records after the flush
// callback — the detection hook (detect.Detector implements it). It runs
// where the flush callback runs: on the background drain worker, or on
// the flushing goroutine after Close. The records slice is manager-owned
// and must not be retained, the FlushFunc contract.
type EpochObserver interface {
	ObserveEpoch(epoch int, records []flow.Record)
}

// Config parameterizes the adaptive manager.
type Config struct {
	// Capacity is the flow capacity of the recorder (for HashFlow, its
	// main-table cell count is the natural choice).
	Capacity int
	// HighWatermark flushes the epoch when the estimated flow count
	// exceeds HighWatermark*Capacity. Default 0.9.
	HighWatermark float64
	// MaxEpochPackets flushes after this many packets even if the
	// watermark is never hit, bounding epoch length under light traffic.
	// Default 1<<22.
	MaxEpochPackets uint64
	// CheckEvery controls how often (in packets) the cardinality estimate
	// is consulted; estimation is O(table size), so it is amortized.
	// Default 4096.
	CheckEvery uint64
}

func (c Config) withDefaults() Config {
	if c.HighWatermark == 0 {
		c.HighWatermark = 0.9
	}
	if c.MaxEpochPackets == 0 {
		c.MaxEpochPackets = 1 << 22
	}
	if c.CheckEvery == 0 {
		c.CheckEvery = 4096
	}
	return c
}

// Manager wraps a pair of recorders with adaptive epoch control. Epoch
// rotation swaps the full recorder for a reset standby and hands
// extraction, the flush callback and the reset to a background worker, so
// ingestion resumes immediately while the previous epoch drains off the
// hot path.
type Manager struct {
	rec    flowmon.Recorder
	cfg    Config
	flush  FlushFunc
	epoch  int
	inEp   uint64 // packets in the current epoch
	checks uint64 // packets since the last watermark check
	total  uint64

	// buf is the extraction buffer of rotations after Close, which drain
	// on the flushing goroutine.
	buf []flow.Record

	// dets observe drained epochs, in attach order (empty when unset).
	// drainErr records the first panic recovered on the drain path;
	// drainPanics counts them.
	dets        []EpochObserver
	drainErr    atomic.Pointer[error]
	drainPanics atomic.Uint64

	// metrics, onDrainErr and spanHook are optional observability hooks,
	// set before ingestion (SetMetrics, SetDrainErrorHook, SetSpanHook)
	// and read without synchronization by the ingest path and the drain
	// worker.
	metrics    *Metrics
	onDrainErr func(error)
	spanHook   func(StageSpan)

	// The standby channel holds the reset recorder ready for the next swap,
	// jobs carries full recorders to the flush worker (capacity 1: at most
	// one epoch drains behind the live one).
	standby chan flowmon.Recorder
	jobs    chan flushJob
	done    chan struct{}
	closed  bool
}

// flushJob is one completed epoch travelling to the flush worker.
type flushJob struct {
	epoch int
	rec   flowmon.Recorder
}

// NewDoubleBuffered wraps two interchangeable recorders — active fills the
// current epoch while standby is the reset spare — and spawns the flush
// worker that extracts, reports and resets completed epochs in the
// background. The two recorders must be configured identically (same
// algorithm, memory budget and seed family) or per-epoch accuracy will
// differ between odd and even epochs. flush may be nil if the caller only
// needs the epoch boundaries' side effects (observers, reset). Call Close
// when done to stop the worker and drain the final epoch handoff.
func NewDoubleBuffered(active, standby flowmon.Recorder, cfg Config, flush FlushFunc) (*Manager, error) {
	cfg = cfg.withDefaults()
	if standby == nil {
		return nil, fmt.Errorf("adaptive: nil standby recorder")
	}
	if active == nil {
		return nil, fmt.Errorf("adaptive: nil recorder")
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("adaptive: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.HighWatermark <= 0 || cfg.HighWatermark > 1 {
		return nil, fmt.Errorf("adaptive: high watermark must be in (0,1], got %v", cfg.HighWatermark)
	}
	m := &Manager{
		rec:     active,
		cfg:     cfg,
		flush:   flush,
		standby: make(chan flowmon.Recorder, 1),
		jobs:    make(chan flushJob, 1),
		done:    make(chan struct{}),
	}
	m.standby <- standby
	go m.flushWorker()
	return m, nil
}

// AttachDetector registers an observer for every drained epoch,
// evaluated after the flush callback — on the background worker, so
// detection never touches the packet path. Multiple observers may be
// attached (a detector plus a correlator feeder, an exporter tap, ...);
// they run in attach order, each
// panic-isolated, over the same drained buffer. Call before ingestion
// begins (the registration is published to the worker by the first
// rotation's channel send). A panicking or slow observer cannot deadlock
// rotation: panics anywhere on the drain path are recovered (see
// DrainErr) and the epoch's recorder still resets and returns to
// standby.
func (m *Manager) AttachDetector(d EpochObserver) error {
	if d == nil {
		return fmt.Errorf("adaptive: nil detector")
	}
	m.dets = append(m.dets, d)
	return nil
}

// DrainErr returns the first panic recovered on the drain path (flush
// callback, detector, or reset), or nil. The drain keeps running after a
// panic — the epoch that panicked may be partially reported, but rotation
// never stalls and no later epoch is dropped.
func (m *Manager) DrainErr() error {
	if p := m.drainErr.Load(); p != nil {
		return *p
	}
	return nil
}

// DrainPanics returns how many drain-path panics have been recovered.
func (m *Manager) DrainPanics() uint64 { return m.drainPanics.Load() }

// safely runs fn, converting a panic into the manager's sticky drain
// error. It reports whether fn completed without panicking.
func (m *Manager) safely(stage string, fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			m.drainPanics.Add(1)
			if mm := m.metrics; mm != nil {
				mm.DrainPanics.Inc()
			}
			err := fmt.Errorf("adaptive: %s panicked: %v", stage, r)
			if m.drainErr.CompareAndSwap(nil, &err) {
				// First panic recovered on this manager: tell whoever
				// asked to be told, once, while it is happening.
				if hook := m.onDrainErr; hook != nil {
					hook(err)
				}
			}
		}
	}()
	fn()
	return true
}

// StageSpan is one drained epoch's stage timing summary, delivered to the
// SetSpanHook callback: how long each drain stage took and how many records
// the epoch held. Durations are wall nanoseconds; DetectNs sums over all
// attached observers.
type StageSpan struct {
	Epoch     int
	Records   int
	ExtractNs int64
	FlushNs   int64
	DetectNs  int64
	ResetNs   int64
}

// SetSpanHook installs a callback receiving a StageSpan for every drained
// epoch — the feed for epoch timeline tracing (telemetry/events). The hook
// runs on the drain worker (on the flushing goroutine after Close) after
// the epoch's reset, never on the packet path, and must not retain
// references into the drained buffer (it receives only counts). Call
// before ingestion begins; only the first hook wins, like
// SetDrainErrorHook. Stage timing is enabled by either a hook or metrics,
// so an uninstrumented, unhooked manager still skips every clock read.
func (m *Manager) SetSpanHook(fn func(StageSpan)) {
	if m.spanHook == nil {
		m.spanHook = fn
	}
}

// flushWorker drains completed epochs: extract into a reused buffer, run
// the callback and the detector, reset the recorder and return it as the
// next standby. Every stage is panic-isolated: a faulty callback, detector
// or reset marks DrainErr but the recorder always re-enters rotation, so
// one bad epoch can neither kill the worker (which would wedge the next
// Flush forever) nor drop the epochs behind it.
func (m *Manager) flushWorker() {
	defer close(m.done)
	var buf []flow.Record
	for job := range m.jobs {
		m.drain(job.epoch, job.rec, &buf)
		m.standby <- job.rec
	}
}

// drain processes one completed epoch: on the worker, or on the flushing
// goroutine after Close. Stage timing runs when either metrics or a span
// hook is attached — histograms are nil-safe, so one clock pair per stage
// serves both consumers.
func (m *Manager) drain(epoch int, rec flowmon.Recorder, buf *[]flow.Record) {
	mm := m.metrics
	timing := mm != nil || m.spanHook != nil
	sp := StageSpan{Epoch: epoch}
	stage := func(h *telemetry.Histogram, dst *int64, name string, fn func()) bool {
		if !timing {
			return m.safely(name, fn)
		}
		start := time.Now()
		ok := m.safely(name, fn)
		d := time.Since(start)
		h.ObserveDuration(d)
		*dst += d.Nanoseconds()
		return ok
	}
	var extractNs, flushNs, resetNs *telemetry.Histogram
	if mm != nil {
		extractNs, flushNs, resetNs = mm.ExtractNs, mm.FlushCbNs, mm.ResetNs
	}
	if m.flush != nil || len(m.dets) > 0 {
		extracted := stage(extractNs, &sp.ExtractNs, "extraction", func() {
			*buf = rec.AppendRecords((*buf)[:0])
		})
		if extracted {
			sp.Records = len(*buf)
			if m.flush != nil {
				stage(flushNs, &sp.FlushNs, "flush callback", func() { m.flush(epoch, *buf) })
			}
			for i, det := range m.dets {
				var detNs *telemetry.Histogram
				if mm != nil {
					detNs = mm.detectorNs(i)
				}
				stage(detNs, &sp.DetectNs, "detector", func() { det.ObserveEpoch(epoch, *buf) })
			}
		}
	}
	stage(resetNs, &sp.ResetNs, "recorder reset", rec.Reset)
	if mm != nil {
		mm.Epochs.Inc()
	}
	if m.spanHook != nil {
		m.spanHook(sp)
	}
}

// Update processes one packet, flushing the epoch first if the recorder is
// saturated or the epoch packet budget is exhausted.
func (m *Manager) Update(p flow.Packet) {
	m.rec.Update(p)
	m.advance(1)
}

// UpdateBatch processes a batch of packets, handing the recorder whole
// sub-batches. Each sub-batch ends at the next epoch budget or watermark
// check, whichever comes first, so rotations and checks fall on exactly
// the packets where per-packet Update puts them.
func (m *Manager) UpdateBatch(pkts []flow.Packet) {
	for len(pkts) > 0 {
		n := min(uint64(len(pkts)), m.cfg.MaxEpochPackets-m.inEp, m.cfg.CheckEvery-m.checks)
		m.rec.UpdateBatch(pkts[:n])
		m.advance(n)
		pkts = pkts[n:]
	}
}

// advance counts n packets just applied to the live recorder, then ends
// the epoch if its packet budget is spent or, at a watermark check, if the
// cardinality estimate has reached the watermark. Callers never step past
// the next budget or check boundary, so both rules fire on the exact
// packet.
func (m *Manager) advance(n uint64) {
	m.inEp += n
	m.checks += n
	m.total += n

	if m.inEp >= m.cfg.MaxEpochPackets {
		m.Flush()
		return
	}
	if m.checks >= m.cfg.CheckEvery {
		m.checks = 0
		if m.rec.EstimateCardinality() >= m.cfg.HighWatermark*float64(m.cfg.Capacity) {
			m.Flush()
		}
	}
}

// Flush ends the current epoch and starts the next one: the full recorder
// is swapped for the reset standby and queued to the flush worker. Flush
// only blocks if the worker is still draining the previous epoch (rotation
// outpacing extraction). After Close there is no worker, and Flush drains
// the epoch itself through the same panic-isolated stages.
func (m *Manager) Flush() {
	if m.closed {
		m.drain(m.epoch, m.rec, &m.buf)
	} else {
		var stallStart time.Time
		if m.metrics != nil {
			stallStart = time.Now()
		}
		full := m.rec
		m.rec = <-m.standby
		m.jobs <- flushJob{epoch: m.epoch, rec: full}
		if mm := m.metrics; mm != nil {
			mm.RotationStallNs.ObserveDuration(time.Since(stallStart))
		}
	}
	m.epoch++
	m.inEp = 0
	m.checks = 0
}

// Close stops the flush worker after it has drained any queued epoch. It
// does not flush the live epoch — call Flush first if the partial epoch
// must be reported. The manager remains usable afterwards: further
// rotations drain on the flushing goroutine. Close is idempotent.
func (m *Manager) Close() {
	if m.closed {
		return
	}
	m.closed = true
	close(m.jobs)
	<-m.done
}

// Epoch returns the index of the epoch currently being filled.
func (m *Manager) Epoch() int { return m.epoch }

// EpochPackets returns how many packets the current epoch has absorbed.
func (m *Manager) EpochPackets() uint64 { return m.inEp }

// TotalPackets returns the number of packets processed across all epochs.
func (m *Manager) TotalPackets() uint64 { return m.total }
