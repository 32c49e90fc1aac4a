package detect

import (
	"repro/telemetry"
)

// Metrics carries the detector's instruments: alert volume broken down
// by kind and severity, and the per-epoch evaluation cost. Everything is
// observed at epoch granularity on the evaluating goroutine — nothing
// touches the packet path.
type Metrics struct {
	// ObserveNs is the full evaluation cost of one epoch (every
	// enabled stage).
	ObserveNs *telemetry.Histogram

	// Fixed per-kind / per-severity alert counters, indexed by the
	// (small, dense) Kind and Severity enums so the emit path is an
	// array index, not a map lookup.
	kinds [KindNetwide + 1]*telemetry.Counter
	sevs  [SeverityCritical + 1]*telemetry.Counter
}

// NewMetrics registers the detector instruments under the given label
// pairs and returns them for SetMetrics.
func NewMetrics(reg *telemetry.Registry, labelPairs ...string) *Metrics {
	m := &Metrics{
		ObserveNs: reg.Histogram(
			telemetry.Name("detect_observe_ns", labelPairs...),
			"full epoch evaluation cost (all enabled stages), ns"),
	}
	for k := KindHeavyChange; k <= KindNetwide; k++ {
		lbl := append(append([]string{}, labelPairs...), "kind", k.String())
		m.kinds[k] = reg.Counter(telemetry.Name("detect_alerts_total", lbl...),
			"alerts raised, by kind")
	}
	for s := SeverityInfo; s <= SeverityCritical; s++ {
		lbl := append(append([]string{}, labelPairs...), "severity", s.String())
		m.sevs[s] = reg.Counter(telemetry.Name("detect_alerts_by_severity_total", lbl...),
			"alerts raised, by severity")
	}
	return m
}

// countAlert attributes one raised alert; nil receiver is free.
func (m *Metrics) countAlert(a Alert) {
	if m == nil {
		return
	}
	if int(a.Kind) < len(m.kinds) {
		m.kinds[a.Kind].Inc()
	}
	if int(a.Severity) < len(m.sevs) {
		m.sevs[a.Severity].Inc()
	}
}

// SetMetrics attaches instruments. Call before evaluation begins, on
// the goroutine that will drive Observe.
func (d *Detector) SetMetrics(m *Metrics) { d.metrics = m }
