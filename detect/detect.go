// Package detect turns the measurement pipeline from a state reporter
// into a change monitor: the classic downstream consumers of sketch-based
// network-wide measurement — heavy-change detection, superspreader/scan
// surfacing, DDoS victim surfacing, slow-ramp forecasting, and traffic
// anomaly alerting — evaluated once per epoch on the rotation drain,
// never on the packet path.
//
// A Detector consumes each completed epoch's record buffer (the
// adaptive.Manager drain hands it over via AttachDetector, or any
// per-epoch sink calls ObserveEpoch directly) and layers five detectors
// over per-epoch features:
//
//   - Heavy changers: per-key deltas against the previous epoch, computed
//     by the sorted two-cursor walk (netwide.DiffInto), fed weighted into
//     a Space-Saving tracker (topk.Tracker) so the top-k by |delta| is
//     found in bounded memory even when everything shifts at once.
//   - Forecast outliers: a compact open-addressed table keeps a smoothed
//     Holt model (level + trend) per tracked key; residuals against the
//     one-step forecast feed a two-sided CUSUM, so a flow ramping up
//     below the per-epoch delta threshold still alerts once its
//     accumulated drift crosses the line (see forecast.go).
//   - Superspreaders: per-source distinct-destination fanout, estimated
//     with a small bitmap sketch (DistinctSketch) over each source's run
//     in the key-sorted buffer, so a port-diverse client and a scanner
//     are told apart in constant memory.
//   - Victim fan-in: the mirror walk keyed by destination — per-dst
//     distinct sources over a dst-sorted view — so the many-sources→
//     one-destination shape of a DDoS victim surfaces even when every
//     individual flow is a mouse.
//   - Anomalies: robust EWMA/MAD baselines over epoch aggregates (total
//     packets, distinct flows, key-distribution entropy) flag epochs that
//     break the traffic's own history.
//
// Alerts are typed values with a kind, severity and the offending key;
// recent alerts and per-epoch change top-k lists are kept in fixed-size
// rings the query layer serves from (/alerts, /changes) without touching
// the detector's evaluation state. For cross-vantage correlation, the
// per-epoch change summaries can additionally be streamed to a
// Correlator (SetSummarySink), which promotes keys changing at several
// vantage points to network-wide alerts (see correlate.go).
package detect

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/flow"
	"repro/internal/keysort"
	"repro/netwide"
	"repro/topk"
)

// Kind classifies an alert.
type Kind uint8

const (
	// KindHeavyChange flags a flow whose packet count moved by at least
	// the configured delta between consecutive epochs.
	KindHeavyChange Kind = 1 + iota
	// KindSuperspreader flags a source contacting at least the configured
	// number of distinct destinations within one epoch.
	KindSuperspreader
	// KindAnomaly flags an epoch aggregate (packets, flows, entropy) that
	// breaks its robust baseline.
	KindAnomaly
	// KindForecast flags a flow whose accumulated drift from its Holt
	// forecast crossed the CUSUM threshold — the slow-ramp signal the
	// epoch-over-epoch delta misses.
	KindForecast
	// KindVictimFanIn flags a destination contacted by at least the
	// configured number of distinct sources within one epoch — the DDoS
	// victim mirror of the superspreader walk.
	KindVictimFanIn
	// KindNetwide flags a key promoted by the cross-vantage correlator:
	// changing at enough vantage points at once, or by enough in the
	// merged network-wide view.
	KindNetwide
)

// String renders the kind in the form ParseKind accepts.
func (k Kind) String() string {
	switch k {
	case KindHeavyChange:
		return "heavychange"
	case KindSuperspreader:
		return "superspreader"
	case KindAnomaly:
		return "anomaly"
	case KindForecast:
		return "forecast"
	case KindVictimFanIn:
		return "victimfanin"
	case KindNetwide:
		return "netwide"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ParseKind decodes a kind name; the accepted names are the String
// renderings.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "heavychange":
		return KindHeavyChange, nil
	case "superspreader":
		return KindSuperspreader, nil
	case "anomaly":
		return KindAnomaly, nil
	case "forecast":
		return KindForecast, nil
	case "victimfanin":
		return KindVictimFanIn, nil
	case "netwide":
		return KindNetwide, nil
	default:
		return 0, fmt.Errorf("detect: unknown alert kind %q", s)
	}
}

// Severity grades an alert. The ordering is meaningful: Critical >
// Warning > Info, so "at least warning" filters compare directly.
type Severity uint8

const (
	// SeverityInfo is informational.
	SeverityInfo Severity = 1 + iota
	// SeverityWarning crosses a configured threshold.
	SeverityWarning
	// SeverityCritical crosses the threshold by a wide margin.
	SeverityCritical
)

// String renders the severity in the form ParseSeverity accepts.
func (s Severity) String() string {
	switch s {
	case SeverityInfo:
		return "info"
	case SeverityWarning:
		return "warning"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("severity(%d)", uint8(s))
	}
}

// ParseSeverity decodes a severity name.
func ParseSeverity(s string) (Severity, error) {
	switch s {
	case "info":
		return SeverityInfo, nil
	case "warning":
		return SeverityWarning, nil
	case "critical":
		return SeverityCritical, nil
	default:
		return 0, fmt.Errorf("detect: unknown severity %q", s)
	}
}

// Alert is one detection event.
type Alert struct {
	// Kind classifies the event.
	Kind Kind
	// Severity grades it (threshold crossed vs crossed by a wide margin).
	Severity Severity
	// Epoch is the epoch index the event was observed in.
	Epoch int
	// Time is the observation timestamp.
	Time time.Time
	// Key is the offending flow key. Heavy-change, forecast and netwide
	// alerts carry the full 5-tuple; superspreader alerts carry the
	// source address in Key.SrcIP and victim fan-in alerts the
	// destination address in Key.DstIP, with every other field zero;
	// anomaly alerts carry a zero key.
	Key flow.Key
	// Metric names the aggregate an anomaly alert fired on ("packets",
	// "flows", "entropy"); empty for the per-key kinds.
	Metric string
	// Value is the observed quantity: the signed delta for heavy changes
	// (merged across vantages for netwide), the fanout/fan-in estimate
	// for superspreaders and victims, the epoch count for forecast
	// outliers, the metric value for anomalies.
	Value float64
	// Baseline is the reference the value was judged against: the
	// previous epoch's count, the fanout/fan-in threshold, the one-step
	// forecast, or the EWMA center.
	Baseline float64
	// Score is the value in threshold units (heavy change, superspreader,
	// fan-in, forecast CUSUM, netwide) or the robust z-score (anomaly);
	// severities derive from it.
	Score float64
}

// String renders the alert as one log line, the stdout sink format.
func (a Alert) String() string {
	switch a.Kind {
	case KindHeavyChange:
		return fmt.Sprintf("[%s] %s epoch=%d %s delta=%+.0f (prev %.0f)",
			a.Severity, a.Kind, a.Epoch, a.Key, a.Value, a.Baseline)
	case KindSuperspreader:
		return fmt.Sprintf("[%s] %s epoch=%d src=%s fanout=%.0f (threshold %.0f)",
			a.Severity, a.Kind, a.Epoch, flow.IPString(a.Key.SrcIP), a.Value, a.Baseline)
	case KindVictimFanIn:
		return fmt.Sprintf("[%s] %s epoch=%d dst=%s fanin=%.0f (threshold %.0f)",
			a.Severity, a.Kind, a.Epoch, flow.IPString(a.Key.DstIP), a.Value, a.Baseline)
	case KindForecast:
		return fmt.Sprintf("[%s] %s epoch=%d %s count=%.0f forecast=%.0f cusum score=%.1f",
			a.Severity, a.Kind, a.Epoch, a.Key, a.Value, a.Baseline, a.Score)
	case KindNetwide:
		return fmt.Sprintf("[%s] %s epoch=%d %s merged_delta=%+.0f (prev %.0f) score=%.1f",
			a.Severity, a.Kind, a.Epoch, a.Key, a.Value, a.Baseline, a.Score)
	default:
		return fmt.Sprintf("[%s] %s epoch=%d metric=%s value=%.3f baseline=%.3f score=%.1f",
			a.Severity, a.Kind, a.Epoch, a.Metric, a.Value, a.Baseline, a.Score)
	}
}

// Change is one entry of an epoch's heavy-change top-k: the exact
// before/after counts of a flow the delta tracker surfaced. It is the
// netwide diff vocabulary, re-exported so the query layer needs no
// second type for the same concept.
type Change = netwide.Delta

// ChangeSummary is one epoch's change top-k, ordered by |delta|
// descending.
type ChangeSummary struct {
	Epoch   int
	Time    time.Time
	Changes []Change
}

// Features are the per-epoch aggregates the anomaly detector scores.
type Features struct {
	// Epoch is the epoch index.
	Epoch int
	// Packets is the total packet count across the epoch's records.
	Packets uint64
	// Flows is the number of distinct keys.
	Flows int
	// Entropy is the normalized Shannon entropy of the per-key packet
	// distribution, in [0,1]: 1 means perfectly even, 0 means one flow
	// carries everything (or fewer than two flows exist).
	Entropy float64
}

// Stage selects which detection passes a Detector runs; a bitmask so the
// cost of each pass can be measured (and paid) independently.
type Stage uint8

const (
	// StageChange runs the epoch-over-epoch heavy-change pass.
	StageChange Stage = 1 << iota
	// StageForecast runs the per-key Holt forecast / CUSUM pass.
	StageForecast
	// StageSpreader runs the per-source fanout walk.
	StageSpreader
	// StageFanIn runs the per-destination fan-in walk.
	StageFanIn
	// StageAnomaly runs the epoch-aggregate baseline scoring.
	StageAnomaly

	// StageAll enables every pass, the zero-config default.
	StageAll = StageChange | StageForecast | StageSpreader | StageFanIn | StageAnomaly
)

// Config parameterizes a Detector. The zero value takes every default.
type Config struct {
	// Stages selects the detection passes to run. Zero means StageAll.
	Stages Stage
	// ChangeMinDelta is the per-key |delta| that qualifies as a heavy
	// change. Default 1024.
	ChangeMinDelta uint32
	// SummaryMinDelta is the per-key |delta| floor for inclusion in the
	// per-epoch ChangeSummary. It defaults to ChangeMinDelta (summaries
	// carry exactly the alerted set); setting it lower feeds sub-threshold
	// deltas to a cross-vantage Correlator, which can promote keys whose
	// change only crosses the line after the network-wide merge. Must not
	// exceed ChangeMinDelta.
	SummaryMinDelta uint32
	// ChangeTopK is how many heavy changers are reported per epoch.
	// Default 16.
	ChangeTopK int
	// ChangeTrackerCapacity bounds the Space-Saving delta tracker.
	// Default max(1024, 8*ChangeTopK).
	ChangeTrackerCapacity int
	// FanoutThreshold is the distinct-destination count that makes a
	// source a superspreader. Default 128.
	FanoutThreshold int
	// FanInThreshold is the distinct-source count that makes a
	// destination a fan-in victim. Default 128.
	FanInThreshold int
	// ForecastCapacity bounds the per-key forecast table; only the
	// ForecastCapacity first keys past the admission floor are modelled.
	// Default 4096.
	ForecastCapacity int
	// ForecastMinCount is the per-epoch packet floor a key must reach to
	// be admitted into the forecast table. Default 128.
	ForecastMinCount uint32
	// ForecastThreshold is the accumulated (CUSUM) drift from the Holt
	// forecast, in packets, that raises a forecast alert. Default 1024.
	ForecastThreshold float64
	// ForecastSlack is the per-epoch residual magnitude the CUSUM absorbs
	// for free, keeping jitter from accumulating. Default
	// ForecastThreshold/8.
	ForecastSlack float64
	// ForecastAlpha is the Holt level gain. Default 0.3.
	ForecastAlpha float64
	// ForecastBeta is the Holt trend gain. Default 0.1.
	ForecastBeta float64
	// ForecastTTL is how many epochs a tracked key may go unobserved
	// before its slot is reclaimed. Default 8.
	ForecastTTL int
	// BaselineWindow is the sliding window (in epochs) of the anomaly
	// baselines. Default 32.
	BaselineWindow int
	// BaselineWarmup is how many epochs must be absorbed before anomaly
	// scoring starts. Default 8.
	BaselineWarmup int
	// AnomalyScore is the robust z-score that makes an epoch aggregate
	// anomalous. Default 8.
	AnomalyScore float64
	// EWMAAlpha is the smoothing factor of the baseline center.
	// Default 0.3.
	EWMAAlpha float64
	// AlertLog is the capacity of the recent-alert ring the query layer
	// serves from. Default 1024.
	AlertLog int
	// ChangeLog is how many per-epoch change summaries are retained.
	// Default 16.
	ChangeLog int
}

func (c Config) withDefaults() Config {
	if c.Stages == 0 {
		c.Stages = StageAll
	}
	if c.ChangeMinDelta == 0 {
		c.ChangeMinDelta = 1024
	}
	if c.SummaryMinDelta == 0 {
		c.SummaryMinDelta = c.ChangeMinDelta
	}
	if c.ChangeTopK == 0 {
		c.ChangeTopK = 16
	}
	if c.ChangeTrackerCapacity == 0 {
		c.ChangeTrackerCapacity = 8 * c.ChangeTopK
		if c.ChangeTrackerCapacity < 1024 {
			c.ChangeTrackerCapacity = 1024
		}
	}
	if c.FanoutThreshold == 0 {
		c.FanoutThreshold = 128
	}
	if c.FanInThreshold == 0 {
		c.FanInThreshold = 128
	}
	if c.ForecastCapacity == 0 {
		c.ForecastCapacity = 4096
	}
	if c.ForecastMinCount == 0 {
		c.ForecastMinCount = 128
	}
	if c.ForecastThreshold == 0 {
		c.ForecastThreshold = 1024
	}
	if c.ForecastSlack == 0 {
		c.ForecastSlack = c.ForecastThreshold / 8
	}
	if c.ForecastAlpha == 0 {
		c.ForecastAlpha = 0.3
	}
	if c.ForecastBeta == 0 {
		c.ForecastBeta = 0.1
	}
	if c.ForecastTTL == 0 {
		c.ForecastTTL = 8
	}
	if c.BaselineWindow == 0 {
		c.BaselineWindow = 32
	}
	if c.BaselineWarmup == 0 {
		c.BaselineWarmup = 8
	}
	if c.AnomalyScore == 0 {
		c.AnomalyScore = 8
	}
	if c.EWMAAlpha == 0 {
		c.EWMAAlpha = 0.3
	}
	if c.AlertLog == 0 {
		c.AlertLog = 1024
	}
	if c.ChangeLog == 0 {
		c.ChangeLog = 16
	}
	return c
}

// anomaly metric names, indexing the baselines array.
var metricNames = [...]string{"packets", "flows", "entropy"}

// Detector evaluates epochs and accumulates alerts. Observe/ObserveEpoch
// must be called from one goroutine at a time (the drain worker); the
// query accessors (AppendAlerts, AppendSummaries, LastFeatures, Epochs)
// are safe to call concurrently with evaluation.
type Detector struct {
	cfg      Config
	tracker  *topk.Tracker  // Space-Saving over |delta|
	sketch   DistinctSketch // reused distinct-count estimator (fanout and fan-in)
	forecast *forecastTable // per-key Holt/CUSUM state (nil without StageForecast)

	// Evaluation state, touched only by Observe.
	prev, cur []flow.Record // key-sorted snapshots of the last two epochs
	byDst     []flow.Record // dst-sorted view of cur for the fan-in walk
	deltas    []netwide.Delta
	topBuf    []flow.Record // tracker snapshot scratch
	changeBuf []Change      // per-epoch change list scratch
	subBuf    []Change      // sub-threshold (summary-only) selection scratch
	pending   []Alert       // alerts of the epoch being evaluated
	baselines [len(metricNames)]*baseline
	seen      uint64 // epochs evaluated (atomic not needed: mu-published)

	// Query-visible state.
	mu       sync.Mutex
	alerts   ring[Alert]
	changes  ring[ChangeSummary]
	features Features
	epochs   uint64

	// sink, when set, receives each epoch's fresh alerts after they are
	// logged; it runs on the evaluating goroutine (the drain worker), so
	// slow sinks should hand off internally.
	sink func([]Alert)
	// summarySink, when set, receives every epoch's change summary (empty
	// ones included — a correlator counts silence too). Same goroutine
	// and retention contract as sink.
	summarySink func(ChangeSummary)

	// seeding suppresses alert retention and sink delivery while
	// SeedFromHistory replays stored epochs: the replayed history still
	// warms every baseline, but its alerts already fired when the epochs
	// were live. Evaluating goroutine only.
	seeding bool

	// metrics, when set (SetMetrics, before evaluation), receives
	// per-epoch cost and alert attribution; nil-safe.
	metrics *Metrics
}

// NewDetector builds a detector.
func NewDetector(cfg Config) (*Detector, error) {
	cfg = cfg.withDefaults()
	if cfg.ChangeTopK < 1 {
		return nil, fmt.Errorf("detect: ChangeTopK must be positive, got %d", cfg.ChangeTopK)
	}
	if cfg.SummaryMinDelta > cfg.ChangeMinDelta {
		return nil, fmt.Errorf("detect: SummaryMinDelta %d exceeds ChangeMinDelta %d",
			cfg.SummaryMinDelta, cfg.ChangeMinDelta)
	}
	if cfg.FanoutThreshold < 1 {
		return nil, fmt.Errorf("detect: FanoutThreshold must be positive, got %d", cfg.FanoutThreshold)
	}
	if cfg.FanInThreshold < 1 {
		return nil, fmt.Errorf("detect: FanInThreshold must be positive, got %d", cfg.FanInThreshold)
	}
	if cfg.ForecastCapacity < 1 {
		return nil, fmt.Errorf("detect: ForecastCapacity must be positive, got %d", cfg.ForecastCapacity)
	}
	if cfg.ForecastThreshold < 0 || cfg.ForecastSlack < 0 {
		return nil, fmt.Errorf("detect: forecast threshold %v / slack %v negative",
			cfg.ForecastThreshold, cfg.ForecastSlack)
	}
	if cfg.ForecastAlpha <= 0 || cfg.ForecastAlpha > 1 || cfg.ForecastBeta <= 0 || cfg.ForecastBeta > 1 {
		return nil, fmt.Errorf("detect: forecast gains alpha %v / beta %v must be in (0,1]",
			cfg.ForecastAlpha, cfg.ForecastBeta)
	}
	if cfg.ForecastTTL < 1 {
		return nil, fmt.Errorf("detect: ForecastTTL must be positive, got %d", cfg.ForecastTTL)
	}
	if cfg.BaselineWindow < 2 || cfg.BaselineWarmup < 1 {
		return nil, fmt.Errorf("detect: baseline window %d / warmup %d too small",
			cfg.BaselineWindow, cfg.BaselineWarmup)
	}
	if cfg.EWMAAlpha <= 0 || cfg.EWMAAlpha > 1 {
		return nil, fmt.Errorf("detect: EWMAAlpha must be in (0,1], got %v", cfg.EWMAAlpha)
	}
	tr, err := topk.NewTracker(cfg.ChangeTrackerCapacity)
	if err != nil {
		return nil, err
	}
	d := &Detector{
		cfg:     cfg,
		tracker: tr,
		alerts:  newRing[Alert](cfg.AlertLog),
		changes: newRing[ChangeSummary](cfg.ChangeLog),
	}
	if cfg.Stages&StageForecast != 0 {
		d.forecast = newForecastTable(cfg.ForecastCapacity, cfg.ForecastAlpha, cfg.ForecastBeta,
			cfg.ForecastSlack, cfg.ForecastThreshold, cfg.ForecastMinCount, cfg.ForecastTTL)
	}
	for i := range d.baselines {
		d.baselines[i] = newBaseline(cfg.BaselineWindow, cfg.EWMAAlpha)
	}
	return d, nil
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// SetSink registers a callback receiving each epoch's fresh alerts right
// after they land in the ring. It runs on the evaluating goroutine and
// must not retain the slice. Call before evaluation begins.
func (d *Detector) SetSink(fn func([]Alert)) { d.sink = fn }

// SetSummarySink registers a callback receiving every evaluated epoch's
// change summary — including empty ones, so a cross-vantage Correlator
// can count an epoch as reported even when this vantage saw nothing
// move. The summary's Changes slice is detector-owned scratch: the
// callback must not retain it (the Correlator copies). Runs on the
// evaluating goroutine; call before evaluation begins. Only fires with
// StageChange enabled.
func (d *Detector) SetSummarySink(fn func(ChangeSummary)) { d.summarySink = fn }

// ObserveEpoch evaluates one drained epoch, stamping it with the current
// time — the adaptive.EpochObserver surface the drain worker drives.
func (d *Detector) ObserveEpoch(epoch int, records []flow.Record) {
	d.Observe(epoch, time.Now(), records)
}

// Observe evaluates one epoch's record buffer and returns the alerts it
// raised. The records slice is not retained (the detector snapshots it
// into its own sorted buffer) and the returned slice is detector-owned
// scratch, valid only until the next Observe. Steady-state evaluation
// with stable epoch sizes is allocation-free.
func (d *Detector) Observe(epoch int, ts time.Time, records []flow.Record) []Alert {
	var evalStart time.Time
	if d.metrics != nil {
		evalStart = time.Now()
	}
	d.pending = d.pending[:0]

	// Snapshot and canonicalize: the drain hands records in shard-then-key
	// order (or arbitrary order from other sinks); every downstream pass
	// wants one key-sorted run with unique keys.
	d.cur = append(d.cur[:0], records...)
	netwide.SortByKey(d.cur)
	d.cur = foldDuplicates(d.cur)

	st := d.cfg.Stages
	feats := extractFeatures(epoch, d.cur, st&StageAnomaly != 0)
	if st&StageChange != 0 {
		d.detectChanges(epoch, ts)
	}
	if st&StageForecast != 0 {
		d.detectForecast(epoch, ts)
	}
	if st&StageSpreader != 0 {
		d.detectSpreaders(epoch, ts)
	}
	if st&StageFanIn != 0 {
		d.detectFanIn(epoch, ts)
	}
	if st&StageAnomaly != 0 {
		d.detectAnomalies(epoch, ts, feats)
	}

	// The evaluated epoch becomes the next comparison base.
	d.prev, d.cur = d.cur, d.prev
	d.seen++

	d.mu.Lock()
	if !d.seeding {
		for _, a := range d.pending {
			d.alerts.push(a)
		}
	}
	d.features = feats
	d.epochs = d.seen
	d.mu.Unlock()

	if !d.seeding && d.sink != nil && len(d.pending) > 0 {
		d.sink(d.pending)
	}
	if m := d.metrics; m != nil && !d.seeding {
		for _, a := range d.pending {
			m.countAlert(a)
		}
		m.ObserveNs.ObserveDuration(time.Since(evalStart))
	}
	return d.pending
}

// detectChanges runs the heavy-change pass: per-key deltas vs the
// previous epoch through the Space-Saving tracker, exact top-k recovered
// from the delta list. The first epoch has no comparison base and is
// skipped (but still reports an empty summary to the sink, so a
// correlator's epoch bookkeeping never waits on it). Deltas are gathered
// down to SummaryMinDelta; only those at or past ChangeMinDelta alert.
func (d *Detector) detectChanges(epoch int, ts time.Time) {
	d.changeBuf = d.changeBuf[:0]
	if d.seen == 0 {
		d.emitSummary(ChangeSummary{Epoch: epoch, Time: ts})
		return
	}
	d.deltas = netwide.DiffInto(d.deltas[:0], d.prev, d.cur, d.cfg.SummaryMinDelta)

	// Space-Saving bounds the candidate set when many keys qualify; exact
	// prev/cur values are then recovered from the (key-sorted) delta list,
	// so reported changes are never tracker estimates.
	d.tracker.Reset()
	for _, dl := range d.deltas {
		d.tracker.Add(dl.Key, dl.Abs())
	}
	d.topBuf = d.tracker.AppendTopK(d.topBuf[:0], d.cfg.ChangeTopK)

	for _, cand := range d.topBuf {
		i, ok := slices.BinarySearchFunc(d.deltas, cand.Key, func(dl netwide.Delta, k flow.Key) int {
			return flow.CompareKeys(dl.Key, k)
		})
		if !ok {
			continue // recycled tracker slot whose key never qualified
		}
		dl := d.deltas[i]
		if dl.Abs() < d.cfg.ChangeMinDelta {
			continue // alerted class only; sub-threshold selected below
		}
		d.changeBuf = append(d.changeBuf, dl)
	}
	if d.cfg.SummaryMinDelta < d.cfg.ChangeMinDelta {
		// Sub-threshold deltas get their own top-k, selected exactly
		// from the delta list: the tracker's |delta|-greedy top-k would
		// crowd them out behind the locally-alerted giants in a busy
		// epoch — which is precisely when the correlator needs them.
		d.subBuf = d.subBuf[:0]
		for _, dl := range d.deltas {
			if dl.Abs() < d.cfg.ChangeMinDelta {
				d.subBuf = append(d.subBuf, dl)
			}
		}
		sortByAbsDesc(d.subBuf)
		if len(d.subBuf) > d.cfg.ChangeTopK {
			d.subBuf = d.subBuf[:d.cfg.ChangeTopK]
		}
		d.changeBuf = append(d.changeBuf, d.subBuf...)
	}
	sortByAbsDesc(d.changeBuf)

	for _, c := range d.changeBuf {
		if c.Abs() < d.cfg.ChangeMinDelta {
			continue // summary-only entry for the correlator
		}
		score := float64(c.Abs()) / float64(d.cfg.ChangeMinDelta)
		sev := SeverityWarning
		if score >= 8 {
			sev = SeverityCritical
		}
		d.pending = append(d.pending, Alert{
			Kind: KindHeavyChange, Severity: sev, Epoch: epoch, Time: ts,
			Key: c.Key, Value: float64(c.Signed()), Baseline: float64(c.Prev), Score: score,
		})
	}

	// The query-served /changes ring keeps its heavy-change semantics:
	// only the alerted subset enters it. changeBuf is |delta|-descending,
	// so that subset is a prefix; the summary sink below still streams
	// the full buffer (sub-threshold entries included) to a correlator.
	alerted := len(d.changeBuf)
	for alerted > 0 && d.changeBuf[alerted-1].Abs() < d.cfg.ChangeMinDelta {
		alerted--
	}
	if !d.seeding {
		summary := ChangeSummary{Epoch: epoch, Time: ts}
		d.mu.Lock()
		// The ring entry owns its slice; recycle the slice of the entry
		// about to be evicted so steady-state summaries do not allocate.
		evicted := d.changes.evictee()
		if evicted != nil {
			summary.Changes = append(evicted.Changes[:0], d.changeBuf[:alerted]...)
		} else {
			summary.Changes = slices.Clone(d.changeBuf[:alerted])
		}
		d.changes.push(summary)
		d.mu.Unlock()
	}
	d.emitSummary(ChangeSummary{Epoch: epoch, Time: ts, Changes: d.changeBuf})
}

// sortByAbsDesc orders changes by |delta| descending, key order breaking
// ties.
func sortByAbsDesc(changes []Change) {
	slices.SortFunc(changes, func(a, b Change) int {
		if a.Abs() != b.Abs() {
			if a.Abs() > b.Abs() {
				return -1
			}
			return 1
		}
		return flow.CompareKeys(a.Key, b.Key)
	})
}

// emitSummary hands one epoch's change summary to the summary sink. The
// Changes slice is detector scratch — the sink contract forbids
// retaining it.
func (d *Detector) emitSummary(s ChangeSummary) {
	if d.summarySink != nil && !d.seeding {
		d.summarySink(s)
	}
}

// detectForecast runs the slow-ramp pass: every record of the canonical
// epoch view is scored against (and absorbed into) its Holt forecast;
// keys whose accumulated CUSUM drift crosses the threshold alert. A
// sweep then reclaims the slots of keys that stopped appearing.
func (d *Detector) detectForecast(epoch int, ts time.Time) {
	for _, r := range d.cur {
		forecast, cusum, _, fired := d.forecast.observe(r.Key, r.Count, epoch)
		if !fired {
			continue
		}
		score := cusum / d.cfg.ForecastThreshold
		sev := SeverityWarning
		if score >= 4 {
			sev = SeverityCritical
		}
		d.pending = append(d.pending, Alert{
			Kind: KindForecast, Severity: sev, Epoch: epoch, Time: ts,
			Key: r.Key, Value: float64(r.Count), Baseline: forecast, Score: score,
		})
	}
	d.forecast.sweep(epoch)
}

// detectFanIn runs the victim fan-in pass, the mirror of the
// superspreader walk: the epoch is re-sorted by destination into a
// reused buffer, each destination is one run, and only runs long enough
// to possibly cross the threshold pay for a sketch evaluation over their
// source addresses. The stable dst-major radix over the key-sorted
// epoch leaves each run in key order.
func (d *Detector) detectFanIn(epoch int, ts time.Time) {
	threshold := d.cfg.FanInThreshold
	d.byDst = append(d.byDst[:0], d.cur...)
	keysort.ByDst(d.byDst)
	for start := 0; start < len(d.byDst); {
		dst := d.byDst[start].Key.DstIP
		end := start + 1
		for end < len(d.byDst) && d.byDst[end].Key.DstIP == dst {
			end++
		}
		if end-start >= threshold {
			d.sketch.Reset()
			for i := start; i < end; i++ {
				d.sketch.Add(d.byDst[i].Key.SrcIP)
			}
			if fanin := d.sketch.Estimate(); fanin >= threshold {
				score := float64(fanin) / float64(threshold)
				sev := SeverityWarning
				if score >= 4 {
					sev = SeverityCritical
				}
				d.pending = append(d.pending, Alert{
					Kind: KindVictimFanIn, Severity: sev, Epoch: epoch, Time: ts,
					Key:   flow.Key{DstIP: dst},
					Value: float64(fanin), Baseline: float64(threshold), Score: score,
				})
			}
		}
		start = end
	}
}

// detectSpreaders runs the superspreader pass over the key-sorted epoch:
// records of one source are contiguous (the packed key orders by source
// address first), so each source is one run, and only runs long enough to
// possibly cross the threshold pay for a sketch evaluation.
func (d *Detector) detectSpreaders(epoch int, ts time.Time) {
	threshold := d.cfg.FanoutThreshold
	for start := 0; start < len(d.cur); {
		src := d.cur[start].Key.SrcIP
		end := start + 1
		for end < len(d.cur) && d.cur[end].Key.SrcIP == src {
			end++
		}
		// A run of n records has at most n distinct destinations; short
		// runs cannot alert, so the sketch only ever sees heavy sources.
		if end-start >= threshold {
			d.sketch.Reset()
			for i := start; i < end; i++ {
				d.sketch.Add(d.cur[i].Key.DstIP)
			}
			if fanout := d.sketch.Estimate(); fanout >= threshold {
				score := float64(fanout) / float64(threshold)
				sev := SeverityWarning
				if score >= 4 {
					sev = SeverityCritical
				}
				d.pending = append(d.pending, Alert{
					Kind: KindSuperspreader, Severity: sev, Epoch: epoch, Time: ts,
					Key:   flow.Key{SrcIP: src},
					Value: float64(fanout), Baseline: float64(threshold), Score: score,
				})
			}
		}
		start = end
	}
}

// detectAnomalies scores the epoch aggregates against their baselines.
func (d *Detector) detectAnomalies(epoch int, ts time.Time, feats Features) {
	values := [len(metricNames)]float64{float64(feats.Packets), float64(feats.Flows), feats.Entropy}
	for i, b := range d.baselines {
		score, center, ok := b.observe(values[i], d.cfg.BaselineWarmup)
		if !ok || score < d.cfg.AnomalyScore {
			continue
		}
		sev := SeverityWarning
		if score >= 2*d.cfg.AnomalyScore {
			sev = SeverityCritical
		}
		d.pending = append(d.pending, Alert{
			Kind: KindAnomaly, Severity: sev, Epoch: epoch, Time: ts,
			Metric: metricNames[i], Value: values[i], Baseline: center, Score: score,
		})
	}
}

// AppendAlerts appends the retained alerts to dst, oldest first, and
// returns the extended slice. Safe concurrently with evaluation.
func (d *Detector) AppendAlerts(dst []Alert) []Alert {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.alerts.appendAll(dst)
}

// AppendSummaries appends the retained per-epoch change summaries to
// dst, oldest first, with the change lists deep-copied so the caller's
// view cannot race later evaluations.
func (d *Detector) AppendSummaries(dst []ChangeSummary) []ChangeSummary {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(dst)
	dst = d.changes.appendAll(dst)
	for i := n; i < len(dst); i++ {
		dst[i].Changes = slices.Clone(dst[i].Changes)
	}
	return dst
}

// LastFeatures returns the aggregates of the most recently evaluated
// epoch.
func (d *Detector) LastFeatures() Features {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.features
}

// ForecastTracked returns how many keys the forecast table currently
// models (0 without StageForecast). Call from the evaluating goroutine.
func (d *Detector) ForecastTracked() int {
	if d.forecast == nil {
		return 0
	}
	return d.forecast.Len()
}

// Epochs returns how many epochs have been evaluated.
func (d *Detector) Epochs() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epochs
}

// extractFeatures computes the epoch aggregates in one pass over the
// canonical (sorted, unique-key) record buffer. The entropy term (one
// log per distinct flow) is only consumed by the anomaly baselines, so
// it is skipped — left 0 in LastFeatures — when that stage is off.
func extractFeatures(epoch int, recs []flow.Record, entropy bool) Features {
	f := Features{Epoch: epoch, Flows: len(recs)}
	for _, r := range recs {
		f.Packets += uint64(r.Count)
	}
	if entropy && len(recs) > 1 && f.Packets > 0 {
		total := float64(f.Packets)
		var h float64
		for _, r := range recs {
			if r.Count == 0 {
				continue
			}
			p := float64(r.Count) / total
			h -= p * math.Log2(p)
		}
		f.Entropy = h / math.Log2(float64(len(recs)))
	}
	return f
}

// foldDuplicates combines adjacent equal-key records of a key-sorted
// slice (saturating), defending the walks against callers whose buffers
// repeat keys (e.g. concatenated un-merged views).
func foldDuplicates(recs []flow.Record) []flow.Record {
	out := recs[:0]
	for _, r := range recs {
		if n := len(out); n > 0 && out[n-1].Key == r.Key {
			s := out[n-1].Count + r.Count
			if s < out[n-1].Count {
				s = ^uint32(0)
			}
			out[n-1].Count = s
			continue
		}
		out = append(out, r)
	}
	return out
}

// ring is a fixed-capacity FIFO over the last cap pushed values.
type ring[T any] struct {
	buf  []T
	next int
	n    int
}

func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, capacity)}
}

// evictee returns a pointer to the slot the next push will overwrite, or
// nil while the ring is still filling — the hook for recycling owned
// sub-slices.
func (r *ring[T]) evictee() *T {
	if r.n < len(r.buf) {
		return nil
	}
	return &r.buf[r.next]
}

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// appendAll appends the retained values to dst, oldest first.
func (r *ring[T]) appendAll(dst []T) []T {
	start := r.next - r.n
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	return dst
}
