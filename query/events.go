// The live ops surface: /events streams the pipeline event bus over SSE
// (resumable via Last-Event-ID), /trace/epochs renders the last K epoch
// stage timelines. Both read telemetry/events state owned by the daemon;
// neither touches the ingest path.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/telemetry/events"
)

const (
	// DefaultEventHeartbeat is the SSE comment-ping interval keeping idle
	// streams alive through proxies (overridable via Config.EventHeartbeat).
	DefaultEventHeartbeat = 15 * time.Second
	// eventQueue is the per-client bounded queue depth: a stalled client
	// misses events past this backlog (with drop accounting) instead of
	// backpressuring the publisher.
	eventQueue = 256
)

// EventParams are the decoded parameters of /events and /trace/epochs.
type EventParams struct {
	// Filter selects events by kind (kind=, comma-separated), minimum
	// severity (severity=) and vantage label (vantage=).
	Filter events.Filter
	// After resumes the stream from a sequence number (after=, also set
	// by the Last-Event-ID header); -1 (the default) streams live only.
	After int64
	// Limit caps /trace/epochs results (limit=, DefaultLimit if absent).
	Limit int
}

// ParseEventParams decodes URL query values for the event endpoints,
// rejecting unknown and repeated keys like the rest of the query surface.
func ParseEventParams(q url.Values) (EventParams, error) {
	p := EventParams{After: -1, Limit: DefaultLimit}
	for key, vals := range q {
		if len(vals) != 1 {
			return EventParams{}, fmt.Errorf("query: parameter %q given %d times", key, len(vals))
		}
		val := vals[0]
		var err error
		switch key {
		case "kind":
			p.Filter.Kinds, err = parseKinds(val)
		case "severity":
			p.Filter.MinSeverity, err = events.ParseSeverity(val)
		case "vantage":
			p.Filter.Vantage = val
		case "after":
			var n uint64
			n, err = strconv.ParseUint(val, 10, 63)
			p.After = int64(n)
		case "limit":
			p.Limit, err = parseBounded(val, 1, MaxLimit)
		default:
			return EventParams{}, fmt.Errorf("query: unknown parameter %q", key)
		}
		if err != nil {
			return EventParams{}, fmt.Errorf("query: bad %s: %w", key, err)
		}
	}
	return p, nil
}

// parseKinds decodes a comma-separated kind list into a bitmask.
func parseKinds(val string) (events.KindSet, error) {
	var set events.KindSet
	for _, name := range strings.Split(val, ",") {
		k, err := events.ParseKind(strings.TrimSpace(name))
		if err != nil {
			return 0, err
		}
		set = set.With(k)
	}
	return set, nil
}

// events streams the bus over SSE. Each event is one `id:`/`event:`/`data:`
// frame whose id is the bus sequence number, so EventSource reconnects
// resume via Last-Event-ID; events missed on a stalled connection are
// reported in `: dropped N` comments rather than silently skipped.
func (h *handler) events(w http.ResponseWriter, r *http.Request, q url.Values) {
	if h.cfg.Events == nil {
		writeError(w, http.StatusNotFound, errors.New("no event bus configured"))
		return
	}
	p, ok := parse(w, q, ParseEventParams)
	if !ok {
		return
	}
	if lid := r.Header.Get("Last-Event-ID"); lid != "" {
		n, err := strconv.ParseUint(lid, 10, 63)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("query: bad Last-Event-ID: %w", err))
			return
		}
		p.After = int64(n)
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// The daemons set a server-wide write timeout sized for request/
	// response endpoints; this stream lives until the client leaves.
	_ = rc.SetWriteDeadline(time.Time{})
	if err := rc.Flush(); err != nil {
		return
	}

	sub := h.cfg.Events.Subscribe(p.Filter, p.After, eventQueue)
	defer h.cfg.Events.Unsubscribe(sub)

	hb := h.cfg.EventHeartbeat
	if hb <= 0 {
		hb = DefaultEventHeartbeat
	}
	ticker := time.NewTicker(hb)
	defer ticker.Stop()

	var reportedDrops uint64
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if d := sub.Dropped(); d != reportedDrops {
				if _, err := fmt.Fprintf(w, ": dropped %d\n\n", d-reportedDrops); err != nil {
					return
				}
				reportedDrops = d
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		case <-ticker.C:
			// Comment ping; carries the head seq so a client can notice
			// it is behind without waiting for the next event.
			if _, err := fmt.Fprintf(w, ": heartbeat seq=%d\n\n", h.cfg.Events.LastSeq()); err != nil {
				return
			}
			if err := rc.Flush(); err != nil {
				return
			}
		}
	}
}

// TraceResponse is the /trace/epochs payload. Epochs are newest first.
type TraceResponse struct {
	Epochs []events.EpochTrace `json:"epochs"`
}

// traceEpochs serves the retained epoch timelines, newest first, honoring
// vantage= and limit=.
func (h *handler) traceEpochs(w http.ResponseWriter, r *http.Request, q url.Values) {
	if h.cfg.Trace == nil {
		writeError(w, http.StatusNotFound, errors.New("no epoch tracer configured"))
		return
	}
	p, ok := parse(w, q, ParseEventParams)
	if !ok {
		return
	}
	all := h.cfg.Trace.Append(nil)
	out := make([]events.EpochTrace, 0, len(all))
	for i := len(all) - 1; i >= 0 && len(out) < p.Limit; i-- {
		if p.Filter.Vantage != "" && all[i].Vantage != p.Filter.Vantage {
			continue
		}
		out = append(out, all[i])
	}
	writeJSON(w, http.StatusOK, TraceResponse{Epochs: out})
}
