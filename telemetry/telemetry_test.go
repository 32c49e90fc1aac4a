package telemetry

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// get fetches url and returns the body, failing the test on error.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return string(body)
}

// getCode fetches url and returns only the status code.
func getCode(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestNilInstrumentsSafe pins the nil-receiver contract: every method
// on a nil instrument is a no-op, so instrumented packages may call
// unconditionally whether or not telemetry is wired.
func TestNilInstrumentsSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(9)
	h.ObserveDuration(time.Second)
	h.Merge(new(Histogram))
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.5) != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("nil histogram snapshot not empty")
	}
}

// refQuantile is the exact sample quantile the histogram approximates:
// the value at 1-based rank ceil(q*n) of the sorted samples.
func refQuantile(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// TestHistogramQuantileVsReference checks the power-of-two bucket
// error bound: for any sample set, the estimated quantile must lie
// within a factor of two of the exact quantile (the winning bucket
// spans [2^(i-1), 2^i)).
func TestHistogramQuantileVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() uint64{
		"uniform":   func() uint64 { return uint64(rng.Intn(1 << 20)) },
		"exp":       func() uint64 { return uint64(rng.ExpFloat64() * 50000) },
		"heavytail": func() uint64 { return uint64(1) << uint(rng.Intn(40)) },
		"constant":  func() uint64 { return 4096 },
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			h := new(Histogram)
			samples := make([]uint64, 0, 20000)
			var wantSum uint64
			for i := 0; i < 20000; i++ {
				v := gen()
				samples = append(samples, v)
				wantSum += v
				h.Observe(v)
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			s := h.Snapshot()
			if s.Count != uint64(len(samples)) {
				t.Fatalf("count %d, want %d", s.Count, len(samples))
			}
			if s.Sum != wantSum {
				t.Fatalf("sum %d, want %d", s.Sum, wantSum)
			}
			for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.95, 0.99, 1.0} {
				exact := refQuantile(samples, q)
				got := s.Quantile(q)
				// Error bound: the estimate lies in the bucket that
				// contains the exact value, so it is within [exact/2,
				// 2*exact] (shifted by one for tiny values).
				lo, hi := exact/2, 2*exact+1
				if got < lo || got > hi {
					t.Errorf("q=%.2f: estimate %d outside [%d,%d] (exact %d)", q, got, lo, hi, exact)
				}
			}
			if max, exact := s.Max(), samples[len(samples)-1]; max < exact || max > 2*exact+1 {
				t.Errorf("max %d outside [exact, 2*exact] (exact %d)", max, exact)
			}
		})
	}
}

// TestHistogramMerge checks that merging two histograms is exactly
// equivalent to observing the union of their samples.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b, whole := new(Histogram), new(Histogram), new(Histogram)
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Intn(1 << 30))
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		whole.Observe(v)
	}
	a.Merge(b)
	got, want := a.Snapshot(), whole.Snapshot()
	if got != want {
		t.Fatalf("merged snapshot differs from whole:\n got %+v\nwant %+v", got, want)
	}
}

// TestConcurrentAdd hammers one counter, gauge and histogram from many
// goroutines; run under -race this doubles as the data-race proof, and
// the final totals must be exact (no lost updates).
func TestConcurrentAdd(t *testing.T) {
	const workers = 8
	const perWorker = 10000
	c := new(Counter)
	g := new(Gauge)
	h := new(Histogram)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(uint64(w*perWorker + i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*perWorker {
		t.Errorf("counter %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge %d, want %d", g.Value(), workers*perWorker)
	}
	if s := h.Snapshot(); s.Count != workers*perWorker {
		t.Errorf("histogram count %d, want %d", s.Count, workers*perWorker)
	}
}

// TestInstrumentAllocFree pins the zero-allocation contract of every
// hot-path method (the root alloc_test.go repeats this through the
// instrumented ingest path).
func TestInstrumentAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	c := new(Counter)
	g := new(Gauge)
	h := new(Histogram)
	var nilC *Counter
	var nilH *Histogram
	cases := map[string]func(){
		"Counter.Add":       func() { c.Add(3) },
		"Gauge.Set":         func() { g.Set(9) },
		"Histogram.Observe": func() { h.Observe(1234) },
		"nil Counter.Add":   func() { nilC.Add(3) },
		"nil Hist.Observe":  func() { nilH.Observe(5) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, allocs)
		}
	}
}

// TestRegistryGetOrCreate pins idempotent registration: asking twice
// for the same name returns the same instrument, and a kind clash
// panics (a programming error, loudly).
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help")
	if a != b {
		t.Fatal("re-registration returned a new counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x_total", "boom")
}

// TestName pins the label-baking format, including escaping.
func TestName(t *testing.T) {
	if got := Name("x_total"); got != "x_total" {
		t.Errorf("no labels: %q", got)
	}
	if got := Name("x_total", "reader", "0", "mode", "batch"); got != `x_total{reader="0",mode="batch"}` {
		t.Errorf("labels: %q", got)
	}
	if got := Name("x", "k", `a"b\c`); got != `x{k="a\"b\\c"}` {
		t.Errorf("escaping: %q", got)
	}
}

// TestPrometheusExposition checks the text-format rendering end to
// end: family HELP/TYPE headers, counter and gauge lines, cumulative
// histogram buckets, and sampler output interleaved in sorted order.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("pkts_total", "packets seen").Add(41)
	r.Counter(Name("reader_pkts_total", "reader", "1"), "per-reader packets").Add(7)
	r.Gauge("queue_len", "queue depth").Set(-3)
	h := r.Histogram("lat_ns", "latency")
	h.Observe(0)
	h.Observe(3) // bucket len=2, bound 3
	h.Observe(900)
	r.RegisterSampler(func(e *Expo) {
		e.Counter("sampled_total", "from sampler", 5)
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pkts_total packets seen",
		"# TYPE pkts_total counter",
		"pkts_total 41",
		`reader_pkts_total{reader="1"} 7`,
		"# TYPE queue_len gauge",
		"queue_len -3",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{le="0"} 1`,
		`lat_ns_bucket{le="3"} 2`,
		`lat_ns_bucket{le="1023"} 3`,
		`lat_ns_bucket{le="+Inf"} 3`,
		"lat_ns_sum 903",
		"lat_ns_count 3",
		"sampled_total 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Labeled histogram: le must join the existing labels.
	lh := r.Histogram(Name("stage_ns", "stage", "flush"), "stage latency")
	lh.Observe(100)
	b.Reset()
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `stage_ns_bucket{stage="flush",le="127"} 1`) {
		t.Errorf("labeled histogram bucket missing:\n%s", b.String())
	}
}

// TestJSONExposition checks the JSON view parses and carries the same
// values, with histogram summaries.
func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(12)
	h := r.Histogram("d_ns", "")
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal([]byte(b.String()), &m); err != nil {
		t.Fatalf("JSON view does not parse: %v\n%s", err, b.String())
	}
	if string(m["a_total"]) != "12" {
		t.Errorf("a_total = %s", m["a_total"])
	}
	var hist struct {
		Count uint64 `json:"count"`
		Sum   uint64 `json:"sum"`
		P50   uint64 `json:"p50"`
	}
	if err := json.Unmarshal(m["d_ns"], &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Count != 100 || hist.Sum != 100000 {
		t.Errorf("histogram summary %+v", hist)
	}
	if hist.P50 < 512 || hist.P50 > 2000 {
		t.Errorf("p50 %d outside the bucket containing 1000", hist.P50)
	}
}

// TestOpsEndpoints drives the mounted mux: /metrics in both formats,
// /healthz structure (including the store recovery facts),
// and pprof presence only under debug.
func TestOpsEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	health := func() Health {
		return Health{
			Status:        "ok",
			UptimeSeconds: 1.5,
			Epochs:        9,
			Store:         &StoreHealth{Path: "x.store", State: "recovered", EpochsRecovered: 4, TornBytes: 13},
		}
	}
	for _, debug := range []bool{false, true} {
		m := http.NewServeMux()
		Ops{Registry: r, Health: health, Debug: debug}.Register(m)
		srv := httptest.NewServer(m)
		defer srv.Close()

		resp := get(t, srv.URL+"/metrics")
		if !strings.Contains(resp, "up_total 1") {
			t.Errorf("text metrics missing counter:\n%s", resp)
		}
		resp = get(t, srv.URL+"/metrics?format=json")
		if !strings.Contains(resp, `"up_total": 1`) {
			t.Errorf("json metrics missing counter:\n%s", resp)
		}
		resp = get(t, srv.URL+"/healthz")
		var h Health
		if err := json.Unmarshal([]byte(resp), &h); err != nil {
			t.Fatalf("healthz does not parse: %v\n%s", err, resp)
		}
		if h.Status != "ok" || h.Epochs != 9 {
			t.Errorf("healthz snapshot %+v", h)
		}
		if h.Store == nil || h.Store.State != "recovered" || h.Store.TornBytes != 13 {
			t.Errorf("healthz store %+v", h.Store)
		}

		code := getCode(t, srv.URL+"/debug/pprof/cmdline")
		if debug && code != 200 {
			t.Errorf("debug on: pprof returned %d", code)
		}
		if !debug && code != 404 {
			t.Errorf("debug off: pprof returned %d, want 404", code)
		}
	}
}
