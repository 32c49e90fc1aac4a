package events

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/detect"
)

func TestBusSeqAndRing(t *testing.T) {
	b := NewBus(4)
	if b.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", b.Cap())
	}
	for i := 0; i < 6; i++ {
		seq := b.Publish(Event{Kind: KindLog, Msg: "m"})
		if seq != uint64(i+1) {
			t.Fatalf("publish %d: seq = %d, want %d", i, seq, i+1)
		}
	}
	if got := b.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
	// Ring of 4 after 6 publishes retains seqs 3..6.
	if got := b.OldestSeq(); got != 3 {
		t.Fatalf("OldestSeq = %d, want 3", got)
	}
	all := b.AppendSince(nil, 0, Filter{})
	if len(all) != 4 || all[0].Seq != 3 || all[3].Seq != 6 {
		t.Fatalf("AppendSince(0) = %+v, want seqs 3..6", all)
	}
	tail := b.AppendSince(nil, 5, Filter{})
	if len(tail) != 1 || tail[0].Seq != 6 {
		t.Fatalf("AppendSince(5) = %+v, want just seq 6", tail)
	}
}

func TestBusDefaultTimeStamp(t *testing.T) {
	b := NewBus(2)
	before := time.Now()
	b.Publish(Event{Kind: KindLog})
	got := b.AppendSince(nil, 0, Filter{})
	if len(got) != 1 || got[0].Time.Before(before) {
		t.Fatalf("publish did not stamp time: %+v", got)
	}
}

func TestFilterMatch(t *testing.T) {
	e := Event{Kind: KindAlert, Severity: SeverityWarning, Vantage: "v1"}
	cases := []struct {
		f    Filter
		want bool
	}{
		{Filter{}, true},
		{Filter{Kinds: KindSet(0).With(KindAlert)}, true},
		{Filter{Kinds: KindSet(0).With(KindEpoch)}, false},
		{Filter{Kinds: KindSet(0).With(KindEpoch).With(KindAlert)}, true},
		{Filter{MinSeverity: SeverityWarning}, true},
		{Filter{MinSeverity: SeverityCritical}, false},
		{Filter{Vantage: "v1"}, true},
		{Filter{Vantage: "v2"}, false},
		{Filter{Kinds: KindSet(0).With(KindAlert), MinSeverity: SeverityInfo, Vantage: "v1"}, true},
	}
	for i, c := range cases {
		if got := c.f.Match(e); got != c.want {
			t.Errorf("case %d: Match = %v, want %v", i, got, c.want)
		}
	}
}

func TestSubscribeLiveAndReplay(t *testing.T) {
	b := NewBus(8)
	for i := 0; i < 3; i++ {
		b.Publish(Event{Kind: KindEpoch, Epoch: i})
	}
	// Live-only subscriber sees nothing retained.
	live := b.Subscribe(Filter{}, -1, 4)
	defer b.Unsubscribe(live)
	select {
	case e := <-live.Events():
		t.Fatalf("live subscriber got replayed event %+v", e)
	default:
	}
	// Resuming from seq 1 replays 2 and 3 before any live event.
	resume := b.Subscribe(Filter{}, 1, 4)
	defer b.Unsubscribe(resume)
	b.Publish(Event{Kind: KindEpoch, Epoch: 3})
	want := []uint64{2, 3, 4}
	for i, w := range want {
		select {
		case e := <-resume.Events():
			if e.Seq != w {
				t.Fatalf("resume event %d: seq = %d, want %d", i, e.Seq, w)
			}
		case <-time.After(time.Second):
			t.Fatalf("resume event %d: timeout", i)
		}
	}
}

func TestSubscribeStaleResumeToken(t *testing.T) {
	// A Last-Event-ID beyond LastSeq (prior process incarnation) must
	// replay history instead of waiting for a seq that will never come.
	b := NewBus(8)
	b.Publish(Event{Kind: KindLog, Msg: "a"})
	b.Publish(Event{Kind: KindLog, Msg: "b"})
	sub := b.Subscribe(Filter{}, 999, 4)
	defer b.Unsubscribe(sub)
	var got []uint64
	for len(got) < 2 {
		select {
		case e := <-sub.Events():
			got = append(got, e.Seq)
		case <-time.After(time.Second):
			t.Fatalf("timeout; got %v", got)
		}
	}
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("stale resume replayed %v, want [1 2]", got)
	}
}

func TestSubscriberDropAccounting(t *testing.T) {
	b := NewBus(16)
	sub := b.Subscribe(Filter{}, -1, 2)
	defer b.Unsubscribe(sub)
	for i := 0; i < 5; i++ {
		b.Publish(Event{Kind: KindLog})
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	_, dropped, subs := b.Stats()
	if dropped != 3 || subs != 1 {
		t.Fatalf("Stats dropped=%d subs=%d, want 3, 1", dropped, subs)
	}
	// Publish never blocked: the queue still holds the first 2.
	e := <-sub.Events()
	if e.Seq != 1 {
		t.Fatalf("first queued seq = %d, want 1", e.Seq)
	}
}

func TestSubscribeFilterApplies(t *testing.T) {
	b := NewBus(16)
	b.Publish(Event{Kind: KindLog})
	b.Publish(Event{Kind: KindAlert, Severity: SeverityCritical})
	sub := b.Subscribe(Filter{Kinds: KindSet(0).With(KindAlert)}, 0, 4)
	defer b.Unsubscribe(sub)
	b.Publish(Event{Kind: KindEpoch})
	b.Publish(Event{Kind: KindAlert, Severity: SeverityWarning})
	want := []Kind{KindAlert, KindAlert}
	for i, w := range want {
		select {
		case e := <-sub.Events():
			if e.Kind != w {
				t.Fatalf("event %d: kind = %v, want %v", i, e.Kind, w)
			}
		case <-time.After(time.Second):
			t.Fatalf("event %d: timeout", i)
		}
	}
}

func TestUnsubscribeClosesQueue(t *testing.T) {
	b := NewBus(4)
	sub := b.Subscribe(Filter{}, -1, 2)
	b.Unsubscribe(sub)
	b.Unsubscribe(sub) // idempotent
	if _, ok := <-sub.Events(); ok {
		t.Fatal("queue not closed after Unsubscribe")
	}
	b.Publish(Event{Kind: KindLog}) // must not panic on closed channel
}

func TestKindSeverityRoundTrip(t *testing.T) {
	for k := KindLog; k <= kindMax; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("kind %v: round trip got %v, %v", k, got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("ParseKind accepted junk")
	}
	for s := SeverityInfo; s <= SeverityCritical; s++ {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Fatalf("severity %v: round trip got %v, %v", s, got, err)
		}
	}
	if _, err := ParseSeverity("nope"); err == nil {
		t.Fatal("ParseSeverity accepted junk")
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	in := Event{
		Seq: 7, Time: time.Unix(100, 0).UTC(), Kind: KindAlert,
		Severity: SeverityCritical, Vantage: "v1", Epoch: 3,
		Msg:   "alert: heavychange",
		Attrs: []Attr{{Key: "score", Value: "4.2"}},
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"kind":"alert"`) || !strings.Contains(string(raw), `"severity":"critical"`) {
		t.Fatalf("names not marshalled as strings: %s", raw)
	}
	var out Event
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != KindAlert || out.Severity != SeverityCritical || out.Seq != 7 || out.Epoch != 3 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Record(EpochTrace{Epoch: i})
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	got := tr.Append(nil)
	if len(got) != 3 || got[0].Epoch != 2 || got[2].Epoch != 4 {
		t.Fatalf("Append = %+v, want epochs 2..4", got)
	}
}

func TestSpanEnd(t *testing.T) {
	b := NewBus(8)
	tr := NewTracer(4)
	sp := Begin("v1", 9, time.Unix(50, 0), 123)
	sp.Time("extract", func() { time.Sleep(time.Millisecond) })
	sp.StageNs("fsync", 42)
	sp.AddAlerts(2)
	sp.End(b, tr)

	traces := tr.Append(nil)
	if len(traces) != 1 {
		t.Fatalf("tracer retained %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Vantage != "v1" || got.Epoch != 9 || got.Records != 123 || got.Alerts != 2 {
		t.Fatalf("trace fields: %+v", got)
	}
	if len(got.Stages) != 2 || got.Stages[0].Name != "extract" || got.Stages[1].Ns != 42 {
		t.Fatalf("trace stages: %+v", got.Stages)
	}
	if got.Stages[0].Ns <= 0 || got.TotalNs != got.Stages[0].Ns+42 {
		t.Fatalf("trace timing: %+v total=%d", got.Stages, got.TotalNs)
	}

	evs := b.AppendSince(nil, 0, Filter{})
	if len(evs) != 1 {
		t.Fatalf("bus has %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != KindEpoch || e.Epoch != 9 || e.Severity != SeverityWarning {
		t.Fatalf("epoch event: %+v", e)
	}
	attrs := map[string]string{}
	for _, a := range e.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["records"] != "123" || attrs["alerts"] != "2" || attrs["fsync_ns"] != "42" {
		t.Fatalf("epoch event attrs: %v", attrs)
	}

	// Nil bus/tracer must be safe.
	Begin("", 0, time.Time{}, 0).End(nil, nil)
}

func TestAlertEvent(t *testing.T) {
	a := detect.Alert{
		Kind:     detect.KindAnomaly,
		Severity: detect.SeverityCritical,
		Epoch:    4,
		Time:     time.Unix(10, 0),
		Metric:   "packets",
		Value:    100, Baseline: 10, Score: 9,
	}
	e := AlertEvent("v2", a)
	if e.Kind != KindAlert || e.Severity != SeverityCritical || e.Vantage != "v2" || e.Epoch != 4 {
		t.Fatalf("alert event: %+v", e)
	}
	attrs := map[string]string{}
	for _, at := range e.Attrs {
		attrs[at.Key] = at.Value
	}
	if attrs["alert_kind"] != "anomaly" || attrs["subject"] != "packets" || attrs["value"] != "100" {
		t.Fatalf("alert attrs: %v", attrs)
	}
	if got := AlertEvent("", detect.Alert{Severity: detect.SeverityWarning}); got.Severity != SeverityWarning {
		t.Fatalf("warning maps to %v", got.Severity)
	}
}

func TestLogHandlerRendersAndPublishes(t *testing.T) {
	var buf bytes.Buffer
	b := NewBus(16)
	logger := slog.New(NewLogHandler(&buf, b, "live"))

	logger.Info("store: recovered store.bin", "kind", "recovery", "epochs_intact", 3)
	logger.Warn("store: write failed", "kind", "degraded", "epoch", 7, "error", "disk full")
	logger.Error("plain line", "path", "/tmp/x y")

	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	if !strings.Contains(lines[0], "store: recovered store.bin") || !strings.Contains(lines[0], "kind=recovery") || !strings.Contains(lines[0], "epochs_intact=3") {
		t.Fatalf("line 0: %q", lines[0])
	}
	if !strings.Contains(lines[1], "epoch=7") || !strings.Contains(lines[1], `error="disk full"`) {
		t.Fatalf("line 1: %q", lines[1])
	}
	if !strings.Contains(lines[2], `path="/tmp/x y"`) {
		t.Fatalf("line 2: %q", lines[2])
	}

	evs := b.AppendSince(nil, 0, Filter{})
	if len(evs) != 3 {
		t.Fatalf("bus has %d events, want 3", len(evs))
	}
	if evs[0].Kind != KindRecovery || evs[0].Vantage != "live" || evs[0].Epoch != NoEpoch {
		t.Fatalf("event 0: %+v", evs[0])
	}
	if evs[1].Kind != KindDegraded || evs[1].Severity != SeverityWarning || evs[1].Epoch != 7 {
		t.Fatalf("event 1: %+v", evs[1])
	}
	if evs[2].Kind != KindLog || evs[2].Severity != SeverityCritical {
		t.Fatalf("event 2: %+v", evs[2])
	}
}

func TestLogHandlerWithAttrsAndGroup(t *testing.T) {
	var buf bytes.Buffer
	b := NewBus(16)
	base := slog.New(NewLogHandler(&buf, b, ""))
	logger := base.With("vantage", "v3").WithGroup("sink").With("url", "http://x")

	logger.Info("posted", "status", 200)

	evs := b.AppendSince(nil, 0, Filter{})
	if len(evs) != 1 || evs[0].Vantage != "v3" {
		t.Fatalf("events: %+v", evs)
	}
	attrs := map[string]string{}
	for _, a := range evs[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["sink.url"] != "http://x" || attrs["sink.status"] != "200" {
		t.Fatalf("attrs: %v", attrs)
	}
	if !strings.Contains(buf.String(), "sink.status=200") {
		t.Fatalf("line: %q", buf.String())
	}
}

func TestLogHandlerNilSinks(t *testing.T) {
	logger := slog.New(NewLogHandler(nil, nil, ""))
	logger.Info("goes nowhere", "k", "v") // must not panic
}
