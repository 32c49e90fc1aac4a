// Alert endpoints: the detection subsystem's read surface. /alerts
// serves the detector's recent-alert ring with kind/severity/epoch
// filtering; /changes serves the per-epoch heavy-change top-k lists;
// /netwide/alerts serves the cross-vantage correlator's promotions with
// their per-vantage evidence. All are ring snapshots — the detector and
// correlator keep evaluating on their drain goroutines while requests
// read, and none of the endpoints ever touches the ingest path.
package query

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"repro/detect"
	"repro/flow"
	"repro/recordstore"
)

// AlertSource serves retained alerts and change summaries;
// *detect.Detector implements it.
type AlertSource interface {
	AppendAlerts(dst []detect.Alert) []detect.Alert
	AppendSummaries(dst []detect.ChangeSummary) []detect.ChangeSummary
}

// NetwideAlertSource serves retained cross-vantage alerts;
// *detect.Correlator implements it.
type NetwideAlertSource interface {
	AppendNetwideAlerts(dst []detect.NetwideAlert) []detect.NetwideAlert
}

// AlertParams are the decoded /alerts parameters.
type AlertParams struct {
	// Kind restricts to one alert kind (kind=); 0 means all.
	Kind detect.Kind
	// MinSeverity drops alerts below this severity (severity=); the
	// default SeverityInfo keeps everything.
	MinSeverity detect.Severity
	// Epoch restricts to one epoch index (epoch=); -1 means all.
	Epoch int
	// Limit caps the result (limit=, DefaultLimit if absent). The newest
	// alerts win when the cap bites.
	Limit int
	// Filter matches against the alert's offending key (filter=); the
	// minpkts term compares against the alert value.
	Filter recordstore.Filter
}

// ParseAlertParams decodes /v1/alerts URL query values with the same
// contract as ParseParams: unknown keys and repeated keys are rejected.
func ParseAlertParams(q url.Values) (AlertParams, error) {
	p := AlertParams{MinSeverity: detect.SeverityInfo, Epoch: -1, Limit: DefaultLimit}
	for key, vals := range q {
		if len(vals) != 1 {
			return AlertParams{}, fmt.Errorf("query: parameter %q given %d times", key, len(vals))
		}
		val := vals[0]
		var err error
		switch key {
		case "kind":
			p.Kind, err = detect.ParseKind(val)
		case "severity":
			p.MinSeverity, err = detect.ParseSeverity(val)
		case "epoch":
			p.Epoch, err = parseBounded(val, 0, 1<<30)
		case "limit":
			p.Limit, err = parseBounded(val, 1, MaxLimit)
		case "filter":
			p.Filter, err = recordstore.ParseFilter(val)
		default:
			return AlertParams{}, fmt.Errorf("query: unknown parameter %q", key)
		}
		if err != nil {
			return AlertParams{}, fmt.Errorf("query: bad %s: %w", key, err)
		}
	}
	return p, nil
}

// match reports whether the alert passes every constraint.
func (p AlertParams) match(a detect.Alert) bool {
	if p.Kind != 0 && a.Kind != p.Kind {
		return false
	}
	if a.Severity < p.MinSeverity {
		return false
	}
	if p.Epoch >= 0 && a.Epoch != p.Epoch {
		return false
	}
	if p.Filter != (recordstore.Filter{}) {
		if !p.Filter.Match(flow.Record{Key: a.Key, Count: clampCount(a.Value)}) {
			return false
		}
	}
	return true
}

// clampCount converts an alert value to the uint32 the record filter
// compares minpkts against.
func clampCount(v float64) uint32 {
	if v < 0 {
		v = -v
	}
	if v >= float64(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(v)
}

// AlertJSON is one alert on the wire.
type AlertJSON struct {
	Kind     string    `json:"kind"`
	Severity string    `json:"severity"`
	Epoch    int       `json:"epoch"`
	Time     string    `json:"time"`
	Flow     *FlowJSON `json:"flow,omitempty"` // heavy-change/forecast/netwide key
	Src      string    `json:"src,omitempty"`  // superspreader source
	Dst      string    `json:"dst,omitempty"`  // victim fan-in destination
	Metric   string    `json:"metric,omitempty"`
	Value    float64   `json:"value"`
	Baseline float64   `json:"baseline"`
	Score    float64   `json:"score"`
}

// AlertsResponse is the /alerts payload. Alerts are newest first.
type AlertsResponse struct {
	Matched int         `json:"matched"`
	Limited bool        `json:"limited"`
	Alerts  []AlertJSON `json:"alerts"`
}

// ChangeJSON is one heavy-change entry on the wire.
type ChangeJSON struct {
	Src   string `json:"src"`
	Sport uint16 `json:"sport"`
	Dst   string `json:"dst"`
	Dport uint16 `json:"dport"`
	Proto uint8  `json:"proto"`
	Prev  uint32 `json:"prev"`
	Cur   uint32 `json:"cur"`
	Delta int64  `json:"delta"`
}

// EpochChangesJSON is one epoch's change top-k.
type EpochChangesJSON struct {
	Epoch   int          `json:"epoch"`
	Time    string       `json:"time"`
	Changes []ChangeJSON `json:"changes"`
}

// ChangesResponse is the /changes payload. Epochs are newest first.
type ChangesResponse struct {
	Epochs []EpochChangesJSON `json:"epochs"`
}

func alertJSON(a detect.Alert) AlertJSON {
	out := AlertJSON{
		Kind:     a.Kind.String(),
		Severity: a.Severity.String(),
		Epoch:    a.Epoch,
		Time:     a.Time.UTC().Format(timeFormat),
		Metric:   a.Metric,
		Value:    a.Value,
		Baseline: a.Baseline,
		Score:    a.Score,
	}
	switch a.Kind {
	case detect.KindHeavyChange, detect.KindForecast, detect.KindNetwide:
		fj := recordJSON(a.Epoch, flow.Record{Key: a.Key, Count: clampCount(a.Value)})
		out.Flow = &fj
	case detect.KindSuperspreader:
		out.Src = flow.IPString(a.Key.SrcIP)
	case detect.KindVictimFanIn:
		out.Dst = flow.IPString(a.Key.DstIP)
	}
	return out
}

// EvidenceJSON is one vantage's contribution to a netwide alert on the
// wire.
type EvidenceJSON struct {
	Vantage string `json:"vantage"`
	Prev    uint32 `json:"prev"`
	Cur     uint32 `json:"cur"`
	Delta   int64  `json:"delta"`
	Alerted bool   `json:"alerted"`
}

// NetwideAlertJSON is one cross-vantage alert with its evidence.
type NetwideAlertJSON struct {
	AlertJSON
	Evidence []EvidenceJSON `json:"evidence"`
}

// NetwideAlertsResponse is the /netwide/alerts payload. Alerts are
// newest first.
type NetwideAlertsResponse struct {
	Matched int                `json:"matched"`
	Limited bool               `json:"limited"`
	Alerts  []NetwideAlertJSON `json:"alerts"`
}

func netwideAlertJSON(a detect.NetwideAlert) NetwideAlertJSON {
	out := NetwideAlertJSON{AlertJSON: alertJSON(a.Alert), Evidence: []EvidenceJSON{}}
	for _, ev := range a.Evidence {
		out.Evidence = append(out.Evidence, EvidenceJSON{
			Vantage: ev.Vantage,
			Prev:    ev.Prev,
			Cur:     ev.Cur,
			Delta:   ev.Delta(),
			Alerted: ev.Alerted,
		})
	}
	return out
}

func (h *handler) alerts(w http.ResponseWriter, r *http.Request, q url.Values) {
	if h.cfg.Alerts == nil {
		writeError(w, http.StatusNotFound, errors.New("no alert source configured"))
		return
	}
	p, ok := parse(w, q, ParseAlertParams)
	if !ok {
		return
	}
	all := h.cfg.Alerts.AppendAlerts(nil)
	resp := AlertsResponse{Alerts: []AlertJSON{}}
	// Newest first: walk the ring backwards so the limit keeps the most
	// recent events.
	for i := len(all) - 1; i >= 0; i-- {
		if !p.match(all[i]) {
			continue
		}
		resp.Matched++
		if len(resp.Alerts) >= p.Limit {
			resp.Limited = true
			continue
		}
		resp.Alerts = append(resp.Alerts, alertJSON(all[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) netwideAlerts(w http.ResponseWriter, r *http.Request, q url.Values) {
	if h.cfg.NetwideAlerts == nil {
		writeError(w, http.StatusNotFound, errors.New("no netwide alert source configured"))
		return
	}
	p, ok := parse(w, q, ParseAlertParams)
	if !ok {
		return
	}
	all := h.cfg.NetwideAlerts.AppendNetwideAlerts(nil)
	resp := NetwideAlertsResponse{Alerts: []NetwideAlertJSON{}}
	for i := len(all) - 1; i >= 0; i-- {
		if !p.match(all[i].Alert) {
			continue
		}
		resp.Matched++
		if len(resp.Alerts) >= p.Limit {
			resp.Limited = true
			continue
		}
		resp.Alerts = append(resp.Alerts, netwideAlertJSON(all[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) changes(w http.ResponseWriter, r *http.Request, q url.Values) {
	if h.cfg.Alerts == nil {
		writeError(w, http.StatusNotFound, errors.New("no alert source configured"))
		return
	}
	p, ok := parse(w, q, ParseParams)
	if !ok {
		return
	}
	sums := h.cfg.Alerts.AppendSummaries(nil)
	resp := ChangesResponse{Epochs: []EpochChangesJSON{}}
	for i := len(sums) - 1; i >= 0; i-- {
		s := sums[i]
		if p.Epoch >= 0 && s.Epoch != p.Epoch {
			continue
		}
		ep := EpochChangesJSON{
			Epoch:   s.Epoch,
			Time:    s.Time.UTC().Format(timeFormat),
			Changes: []ChangeJSON{},
		}
		for _, c := range s.Changes {
			if !p.Filter.Match(flow.Record{Key: c.Key, Count: c.Cur}) {
				continue
			}
			ep.Changes = append(ep.Changes, ChangeJSON{
				Src:   flow.IPString(c.Key.SrcIP),
				Sport: c.Key.SrcPort,
				Dst:   flow.IPString(c.Key.DstIP),
				Dport: c.Key.DstPort,
				Proto: c.Key.Proto,
				Prev:  c.Prev,
				Cur:   c.Cur,
				Delta: c.Signed(),
			})
			if len(ep.Changes) >= p.K {
				break
			}
		}
		resp.Epochs = append(resp.Epochs, ep)
		if len(resp.Epochs) >= p.Limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
