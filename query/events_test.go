package query

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/telemetry/events"
)

func TestParseEventParams(t *testing.T) {
	p, err := ParseEventParams(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if p.After != -1 || p.Limit != DefaultLimit || p.Filter != (events.Filter{}) {
		t.Fatalf("defaults: %+v", p)
	}

	p, err = ParseEventParams(url.Values{
		"kind":     {"alert,epoch"},
		"severity": {"warning"},
		"vantage":  {"v1"},
		"after":    {"7"},
		"limit":    {"5"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Filter.Kinds.Has(events.KindAlert) || !p.Filter.Kinds.Has(events.KindEpoch) || p.Filter.Kinds.Has(events.KindLog) {
		t.Fatalf("kinds: %#x", uint16(p.Filter.Kinds))
	}
	if p.Filter.MinSeverity != events.SeverityWarning || p.Filter.Vantage != "v1" || p.After != 7 || p.Limit != 5 {
		t.Fatalf("parsed: %+v", p)
	}

	for _, bad := range []url.Values{
		{"kind": {"nope"}},
		{"kind": {"alert", "epoch"}},
		{"severity": {"loud"}},
		{"after": {"-2"}},
		{"after": {"xyz"}},
		{"limit": {"0"}},
		{"k": {"10"}},
	} {
		if _, err := ParseEventParams(bad); err == nil {
			t.Errorf("accepted %v", bad)
		}
	}
}

// sseFrame is one parsed SSE event frame.
type sseFrame struct {
	id    uint64
	event string
	data  string
}

// readFrames consumes SSE frames from the stream until n frames arrived or
// the context expired, skipping comments.
func readFrames(t *testing.T, ctx context.Context, body *bufio.Scanner, n int) []sseFrame {
	t.Helper()
	var (
		frames []sseFrame
		cur    sseFrame
	)
	lines := make(chan string)
	go func() {
		defer close(lines)
		for body.Scan() {
			select {
			case lines <- body.Text():
			case <-ctx.Done():
				return
			}
		}
	}()
	for len(frames) < n {
		select {
		case <-ctx.Done():
			t.Fatalf("timeout after %d/%d frames", len(frames), n)
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d/%d frames", len(frames), n)
			}
			switch {
			case line == "":
				if cur.data != "" {
					frames = append(frames, cur)
				}
				cur = sseFrame{}
			case strings.HasPrefix(line, ": "):
				// comment (heartbeat / drop accounting)
			case strings.HasPrefix(line, "id: "):
				id, err := strconv.ParseUint(line[4:], 10, 64)
				if err != nil {
					t.Fatalf("bad id line %q: %v", line, err)
				}
				cur.id = id
			case strings.HasPrefix(line, "event: "):
				cur.event = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[6:]
			}
		}
	}
	return frames
}

func sseGet(t *testing.T, ctx context.Context, rawURL string, lastEventID string) (*http.Response, *bufio.Scanner) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	return resp, bufio.NewScanner(resp.Body)
}

// TestEventsSSEResume is the Last-Event-ID contract across a client
// reconnect: a client that read part of the stream, disconnected, and
// reconnected with its last seen id receives exactly the events after it.
func TestEventsSSEResume(t *testing.T) {
	bus := events.NewBus(64)
	srv := httptest.NewServer(NewHandler(Config{Events: bus, EventHeartbeat: 20 * time.Millisecond}))
	defer srv.Close()

	for i := 0; i < 5; i++ {
		bus.Publish(events.Event{Kind: events.KindEpoch, Epoch: i, Msg: "epoch drained"})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// First connection: replay from the start (after=0), read 2 frames,
	// disconnect.
	conn1, cancel1 := context.WithCancel(ctx)
	resp, sc := sseGet(t, conn1, srv.URL+"/v1/events?after=0", "")
	got := readFrames(t, ctx, sc, 2)
	cancel1()
	resp.Body.Close()
	if got[0].id != 1 || got[1].id != 2 {
		t.Fatalf("first connection ids: %+v", got)
	}
	if got[0].event != "epoch" {
		t.Fatalf("event name = %q", got[0].event)
	}

	// Reconnect with Last-Event-ID: 2 — the remaining 3 replay, then a
	// live event follows.
	resp2, sc2 := sseGet(t, ctx, srv.URL+"/v1/events", strconv.FormatUint(got[1].id, 10))
	defer resp2.Body.Close()
	bus.Publish(events.Event{Kind: events.KindAlert, Severity: events.SeverityCritical, Epoch: 5, Msg: "alert: heavychange"})
	frames := readFrames(t, ctx, sc2, 4)
	for i, f := range frames {
		if f.id != uint64(3+i) {
			t.Fatalf("resumed frame %d: id = %d, want %d", i, f.id, 3+i)
		}
	}
	if frames[3].event != "alert" {
		t.Fatalf("live frame event = %q", frames[3].event)
	}
	var ev events.Event
	if err := json.Unmarshal([]byte(frames[3].data), &ev); err != nil {
		t.Fatalf("data not JSON: %v", err)
	}
	if ev.Kind != events.KindAlert || ev.Seq != 6 || ev.Epoch != 5 {
		t.Fatalf("decoded event: %+v", ev)
	}
}

// TestEventsSSEFilter verifies kind/severity filtering applies to both
// replay and live delivery.
func TestEventsSSEFilter(t *testing.T) {
	bus := events.NewBus(64)
	srv := httptest.NewServer(NewHandler(Config{Events: bus, EventHeartbeat: 20 * time.Millisecond}))
	defer srv.Close()

	bus.Publish(events.Event{Kind: events.KindLog, Msg: "noise"})
	bus.Publish(events.Event{Kind: events.KindAlert, Severity: events.SeverityWarning, Msg: "keep 1"})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, sc := sseGet(t, ctx, srv.URL+"/v1/events?after=0&kind=alert", "")
	defer resp.Body.Close()

	bus.Publish(events.Event{Kind: events.KindEpoch, Msg: "noise"})
	bus.Publish(events.Event{Kind: events.KindAlert, Severity: events.SeverityCritical, Msg: "keep 2"})

	frames := readFrames(t, ctx, sc, 2)
	if frames[0].id != 2 || frames[1].id != 4 {
		t.Fatalf("filtered ids: %+v", frames)
	}
	for _, f := range frames {
		if f.event != "alert" {
			t.Fatalf("frame: %+v", f)
		}
	}
}

func TestEventsEndpointErrors(t *testing.T) {
	// No bus configured: 404.
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()
	for _, path := range []string{"/v1/events", "/v1/trace/epochs"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s without source: status %d", path, resp.StatusCode)
		}
	}

	bus := events.NewBus(8)
	srv2 := httptest.NewServer(NewHandler(Config{Events: bus}))
	defer srv2.Close()
	for _, q := range []string{"?kind=bogus", "?after=zzz", "?bogus=1"} {
		resp, err := http.Get(srv2.URL + "/v1/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/v1/events%s: status %d", q, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, srv2.URL+"/v1/events", nil)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: status %d", resp.StatusCode)
	}
}

func TestTraceEpochs(t *testing.T) {
	tr := events.NewTracer(8)
	for i := 0; i < 5; i++ {
		v := "a"
		if i%2 == 1 {
			v = "b"
		}
		tr.Record(events.EpochTrace{
			Vantage: v, Epoch: i, Records: 10 * i,
			Stages:  []events.StageTiming{{Name: "store_write", Ns: 100}, {Name: "detect", Ns: 200}},
			TotalNs: 300,
		})
	}
	srv := httptest.NewServer(NewHandler(Config{Trace: tr}))
	defer srv.Close()

	get := func(q string) TraceResponse {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/trace/epochs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var trr TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&trr); err != nil {
			t.Fatal(err)
		}
		return trr
	}

	all := get("")
	if len(all.Epochs) != 5 || all.Epochs[0].Epoch != 4 || all.Epochs[4].Epoch != 0 {
		t.Fatalf("all: %+v", all.Epochs)
	}
	if len(all.Epochs[0].Stages) != 2 || all.Epochs[0].Stages[0].Name != "store_write" {
		t.Fatalf("stages: %+v", all.Epochs[0].Stages)
	}

	b := get("?vantage=b&limit=1")
	if len(b.Epochs) != 1 || b.Epochs[0].Epoch != 3 || b.Epochs[0].Vantage != "b" {
		t.Fatalf("filtered: %+v", b.Epochs)
	}
}
