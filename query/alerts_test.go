package query

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"repro/detect"
	"repro/flow"
)

// testDetector builds a detector holding a known alert history: a heavy
// change and a superspreader at epoch 1, a recovery change at epoch 2.
func testDetector(t *testing.T) *detect.Detector {
	t.Helper()
	// Change + spreader stages only: the fixture pins exact alert counts,
	// and the 9000-packet spike would also trip the forecast CUSUM.
	d, err := detect.NewDetector(detect.Config{
		Stages:         detect.StageChange | detect.StageSpreader,
		ChangeMinDelta: 100, FanoutThreshold: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	base := []flow.Record{{Key: hot, Count: 100}}
	spike := []flow.Record{{Key: hot, Count: 9100}}
	for i := 0; i < 100; i++ {
		spike = append(spike, flow.Record{
			Key:   flow.Key{SrcIP: 0x01010101, DstIP: 0xE0000000 | uint32(i), DstPort: 80, Proto: 6},
			Count: 1,
		})
	}
	at := time.Unix(1700000000, 0)
	d.Observe(0, at, base)
	d.Observe(1, at.Add(time.Minute), spike)
	d.Observe(2, at.Add(2*time.Minute), base)
	return d
}

func TestAlertsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Alerts: testDetector(t)}))
	defer srv.Close()

	var resp AlertsResponse
	if code := get(t, srv, "/v1/alerts", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	// Epoch 1: heavy change + superspreader; epoch 2: recovery change.
	if resp.Matched != 3 || len(resp.Alerts) != 3 {
		t.Fatalf("matched %d alerts: %+v", resp.Matched, resp.Alerts)
	}
	// Newest first: the recovery leads.
	if resp.Alerts[0].Epoch != 2 || resp.Alerts[0].Kind != "heavychange" {
		t.Errorf("newest alert = %+v", resp.Alerts[0])
	}
	if resp.Alerts[0].Flow == nil || resp.Alerts[0].Flow.Src != "10.0.0.1" {
		t.Errorf("change alert missing flow: %+v", resp.Alerts[0])
	}

	t.Run("kind filter", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?kind=superspreader", &r)
		if r.Matched != 1 || r.Alerts[0].Src != "1.1.1.1" {
			t.Errorf("superspreader filter: %+v", r)
		}
	})
	t.Run("severity filter", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?severity=critical", &r)
		// The 9000-packet delta is 90x the 100 threshold: critical. The
		// recovery too. The 100-fanout spreader is under 4x: warning.
		if r.Matched != 2 {
			t.Errorf("critical filter matched %d: %+v", r.Matched, r.Alerts)
		}
	})
	t.Run("epoch filter", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?epoch=1", &r)
		if r.Matched != 2 {
			t.Errorf("epoch filter matched %d", r.Matched)
		}
	})
	t.Run("flow filter", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?filter=src%3D10.0.0.1", &r)
		if r.Matched != 2 {
			t.Errorf("flow filter matched %d: %+v", r.Matched, r.Alerts)
		}
	})
	t.Run("limit keeps newest", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?limit=1", &r)
		if r.Matched != 3 || !r.Limited || len(r.Alerts) != 1 || r.Alerts[0].Epoch != 2 {
			t.Errorf("limited listing: %+v", r)
		}
	})
	t.Run("bad params", func(t *testing.T) {
		if code := get(t, srv, "/v1/alerts?kind=bogus", nil); code != http.StatusBadRequest {
			t.Errorf("bogus kind -> %d", code)
		}
		if code := get(t, srv, "/v1/alerts?since=1", nil); code != http.StatusBadRequest {
			t.Errorf("unknown param -> %d", code)
		}
	})
}

func TestChangesEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{Alerts: testDetector(t)}))
	defer srv.Close()

	var resp ChangesResponse
	if code := get(t, srv, "/v1/changes", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Epochs) != 2 {
		t.Fatalf("epochs listed: %+v", resp.Epochs)
	}
	// Newest first.
	if resp.Epochs[0].Epoch != 2 || resp.Epochs[1].Epoch != 1 {
		t.Errorf("order: %d, %d", resp.Epochs[0].Epoch, resp.Epochs[1].Epoch)
	}
	c := resp.Epochs[1].Changes
	if len(c) != 1 || c[0].Delta != 9000 || c[0].Prev != 100 || c[0].Cur != 9100 {
		t.Errorf("epoch 1 changes: %+v", c)
	}
	if resp.Epochs[0].Changes[0].Delta != -9000 {
		t.Errorf("recovery delta: %+v", resp.Epochs[0].Changes)
	}

	t.Run("epoch param", func(t *testing.T) {
		var r ChangesResponse
		get(t, srv, "/v1/changes?epoch=1", &r)
		if len(r.Epochs) != 1 || r.Epochs[0].Epoch != 1 {
			t.Errorf("epoch=1: %+v", r.Epochs)
		}
	})
	t.Run("filter", func(t *testing.T) {
		var r ChangesResponse
		get(t, srv, "/v1/changes?filter=dport%3D22", &r)
		for _, ep := range r.Epochs {
			if len(ep.Changes) != 0 {
				t.Errorf("dport=22 matched: %+v", ep.Changes)
			}
		}
	})
}

// TestAlertKindsOnTheWire pins the JSON rendering of the per-key alert
// kinds: forecast and netwide carry the full flow, victim fan-in the
// destination address.
func TestAlertKindsOnTheWire(t *testing.T) {
	d, err := detect.NewDetector(detect.Config{
		Stages:            detect.StageForecast | detect.StageFanIn,
		FanInThreshold:    64,
		ForecastMinCount:  10,
		ForecastThreshold: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	ramp := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000002, DstPort: 443, Proto: 6}
	at := time.Unix(1700000000, 0)
	d.Observe(0, at, []flow.Record{{Key: ramp, Count: 100}})
	// Epoch 1: the ramp key jumps past the CUSUM threshold, and a victim
	// collects 100 distinct sources.
	recs := []flow.Record{{Key: ramp, Count: 5000}}
	for i := 0; i < 100; i++ {
		recs = append(recs, flow.Record{
			Key:   flow.Key{SrcIP: 0x0B000000 | uint32(i), DstIP: 0x08080808, DstPort: 53, Proto: 17},
			Count: 1,
		})
	}
	d.Observe(1, at.Add(time.Minute), recs)

	srv := httptest.NewServer(NewHandler(Config{Alerts: d}))
	defer srv.Close()

	var fc AlertsResponse
	get(t, srv, "/v1/alerts?kind=forecast", &fc)
	if fc.Matched != 1 || fc.Alerts[0].Flow == nil || fc.Alerts[0].Flow.Src != "10.0.0.1" {
		t.Errorf("forecast on the wire: %+v", fc.Alerts)
	}
	var fi AlertsResponse
	get(t, srv, "/v1/alerts?kind=victimfanin", &fi)
	if fi.Matched != 1 || fi.Alerts[0].Dst != "8.8.8.8" || fi.Alerts[0].Src != "" {
		t.Errorf("fan-in on the wire: %+v", fi.Alerts)
	}
	t.Run("dst filter matches fan-in key", func(t *testing.T) {
		var r AlertsResponse
		get(t, srv, "/v1/alerts?filter=dst%3D8.8.8.8", &r)
		if r.Matched != 1 || r.Alerts[0].Kind != "victimfanin" {
			t.Errorf("dst filter: %+v", r)
		}
	})
}

// testCorrelator drives a real correlator to one promoted epoch: a key
// alerting at both vantages.
func testCorrelator(t *testing.T) *detect.Correlator {
	t.Helper()
	c, err := detect.NewCorrelator(detect.CorrelatorConfig{
		Vantages: []string{"sw1", "sw2"}, Quorum: 2, VantageMinDelta: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	at := time.Unix(1700000000, 0)
	for _, v := range []string{"sw1", "sw2"} {
		c.ObserveSummary(v, detect.ChangeSummary{
			Epoch: 3, Time: at,
			Changes: []detect.Change{{Key: hot, Prev: 100, Cur: 2500}},
		})
	}
	return c
}

func TestNetwideAlertsEndpoint(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{NetwideAlerts: testCorrelator(t)}))
	defer srv.Close()

	var resp NetwideAlertsResponse
	if code := get(t, srv, "/v1/netwide/alerts", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Matched != 1 || len(resp.Alerts) != 1 {
		t.Fatalf("matched %d: %+v", resp.Matched, resp.Alerts)
	}
	a := resp.Alerts[0]
	if a.Kind != "netwide" || a.Epoch != 3 || a.Flow == nil || a.Flow.Src != "10.0.0.1" {
		t.Errorf("netwide alert: %+v", a)
	}
	if a.Value != 4800 { // 2400 per vantage, merged
		t.Errorf("merged delta %v, want 4800", a.Value)
	}
	if len(a.Evidence) != 2 || a.Evidence[0].Vantage != "sw1" || !a.Evidence[0].Alerted ||
		a.Evidence[0].Delta != 2400 {
		t.Errorf("evidence: %+v", a.Evidence)
	}

	t.Run("severity filter", func(t *testing.T) {
		var r NetwideAlertsResponse
		get(t, srv, "/v1/netwide/alerts?severity=critical", &r)
		// 4800/4000 netwide-delta score and full quorum: warning only.
		if r.Matched != 0 {
			t.Errorf("critical filter matched %d: %+v", r.Matched, r.Alerts)
		}
	})
	t.Run("kind filter applies", func(t *testing.T) {
		var r NetwideAlertsResponse
		get(t, srv, "/v1/netwide/alerts?kind=heavychange", &r)
		if r.Matched != 0 {
			t.Errorf("kind filter leaked: %+v", r)
		}
	})
	t.Run("bad params", func(t *testing.T) {
		if code := get(t, srv, "/v1/netwide/alerts?kind=bogus", nil); code != http.StatusBadRequest {
			t.Errorf("bogus kind -> %d", code)
		}
	})
}

func TestAlertsUnconfigured(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()
	if code := get(t, srv, "/v1/alerts", nil); code != http.StatusNotFound {
		t.Errorf("/v1/alerts without source -> %d", code)
	}
	if code := get(t, srv, "/v1/changes", nil); code != http.StatusNotFound {
		t.Errorf("/v1/changes without source -> %d", code)
	}
	if code := get(t, srv, "/v1/netwide/alerts", nil); code != http.StatusNotFound {
		t.Errorf("/v1/netwide/alerts without source -> %d", code)
	}
}

func TestParseAlertParamsDefaults(t *testing.T) {
	p, err := ParseAlertParams(url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != 0 || p.MinSeverity != detect.SeverityInfo || p.Epoch != -1 || p.Limit != DefaultLimit {
		t.Errorf("defaults: %+v", p)
	}
	if _, err := ParseAlertParams(url.Values{"limit": {"0"}}); err == nil {
		t.Error("limit=0 accepted")
	}
	if _, err := ParseAlertParams(url.Values{"kind": {"anomaly", "anomaly"}}); err == nil {
		t.Error("repeated key accepted")
	}
}

// countingSource wraps a SortedSource, counting snapshot calls — the
// probe for the /netwide/topk cache.
type countingSource struct {
	recs  []flow.Record
	calls atomic.Int64
}

func (c *countingSource) AppendSorted(dst []flow.Record) []flow.Record {
	c.calls.Add(1)
	return append(dst, c.recs...)
}

func TestNetwideTopKCache(t *testing.T) {
	src := &countingSource{recs: []flow.Record{
		{Key: flow.Key{SrcIP: 1, Proto: 6}, Count: 10},
		{Key: flow.Key{SrcIP: 2, Proto: 17}, Count: 5},
	}}
	var version atomic.Uint64
	srv := httptest.NewServer(NewHandler(Config{
		Netwide:        []NamedSource{{Name: "sw1", Source: src}},
		NetwideVersion: version.Load,
	}))
	defer srv.Close()

	var r1, r2, r3, r4 TopKResponse
	get(t, srv, "/v1/netwide/topk?k=5", &r1)
	if r1.Cached || src.calls.Load() != 1 {
		t.Fatalf("first request: cached=%v calls=%d", r1.Cached, src.calls.Load())
	}
	get(t, srv, "/v1/netwide/topk?k=5", &r2)
	if !r2.Cached || src.calls.Load() != 1 {
		t.Fatalf("repeat request not served from cache: cached=%v calls=%d", r2.Cached, src.calls.Load())
	}
	if len(r2.Flows) != len(r1.Flows) || r2.Flows[0] != r1.Flows[0] {
		t.Errorf("cached payload diverges: %+v vs %+v", r2.Flows, r1.Flows)
	}
	// A different shape misses.
	get(t, srv, "/v1/netwide/topk?k=1", &r3)
	if r3.Cached || src.calls.Load() != 2 {
		t.Fatalf("different k served from cache: calls=%d", src.calls.Load())
	}
	// Rotation invalidates.
	version.Add(1)
	get(t, srv, "/v1/netwide/topk?k=5", &r4)
	if r4.Cached || src.calls.Load() != 3 {
		t.Fatalf("stale cache after version bump: cached=%v calls=%d", r4.Cached, src.calls.Load())
	}

	t.Run("no version no cache", func(t *testing.T) {
		plain := &countingSource{recs: src.recs}
		psrv := httptest.NewServer(NewHandler(Config{
			Netwide: []NamedSource{{Name: "sw1", Source: plain}},
		}))
		defer psrv.Close()
		var r TopKResponse
		get(t, psrv, "/v1/netwide/topk?k=5", &r)
		get(t, psrv, "/v1/netwide/topk?k=5", &r)
		if r.Cached || plain.calls.Load() != 2 {
			t.Errorf("cache active without version source: calls=%d", plain.calls.Load())
		}
	})
}
