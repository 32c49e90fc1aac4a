package query

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/flow"
	"repro/recordstore"
	"repro/topk"
)

// testStore writes a three-epoch store and returns its path.
func testStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "q.frec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := recordstore.NewWriter(f)
	epochs := [][]flow.Record{
		{
			{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}, Count: 1000},
			{Key: flow.Key{SrcIP: 0x0A000002, DstIP: 0x0A000063, DstPort: 80, Proto: 6}, Count: 50},
		},
		{
			{Key: flow.Key{SrcIP: 0x0A000003, DstIP: 0x0A000064, DstPort: 53, Proto: 17}, Count: 7},
		},
		{
			{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}, Count: 900},
		},
	}
	for i, recs := range epochs {
		if err := w.WriteEpoch(time.Unix(int64(1700000000+300*i), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// liveTracker builds a tracker holding a known distribution.
func liveTracker(t *testing.T) *topk.Tracker {
	t.Helper()
	tk, err := topk.NewTracker(64)
	if err != nil {
		t.Fatal(err)
	}
	tk.AddRecords([]flow.Record{
		{Key: flow.Key{SrcIP: 0x0A000001, DstPort: 443, Proto: 6}, Count: 500},
		{Key: flow.Key{SrcIP: 0x0A000002, DstPort: 80, Proto: 6}, Count: 300},
		{Key: flow.Key{SrcIP: 0x0A000003, DstPort: 53, Proto: 17}, Count: 10},
	})
	return tk
}

func get(t *testing.T, srv *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHandlerEndpoints(t *testing.T) {
	store := testStore(t)
	tk := liveTracker(t)
	peer, _ := topk.NewTracker(64)
	peer.AddRecords([]flow.Record{
		{Key: flow.Key{SrcIP: 0x0A000001, DstPort: 443, Proto: 6}, Count: 400},
		{Key: flow.Key{SrcIP: 0x0A000009, DstPort: 22, Proto: 6}, Count: 350},
	})
	srv := httptest.NewServer(NewHandler(Config{
		TopK:  tk,
		Store: FileStore(store),
		Netwide: []NamedSource{
			{Name: "sw1", Source: tk},
			{Name: "sw2", Source: peer},
		},
	}))
	defer srv.Close()

	t.Run("topk", func(t *testing.T) {
		var resp TopKResponse
		if code := get(t, srv, "/v1/topk?k=2", &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(resp.Flows) != 2 {
			t.Fatalf("got %d flows, want 2", len(resp.Flows))
		}
		if resp.Flows[0].Src != "10.0.0.1" || resp.Flows[0].Packets != 500 {
			t.Errorf("rank 0 = %+v", resp.Flows[0])
		}
		if resp.Flows[1].Packets != 300 {
			t.Errorf("rank 1 = %+v", resp.Flows[1])
		}
	})

	t.Run("topk-filtered", func(t *testing.T) {
		var resp TopKResponse
		get(t, srv, "/v1/topk?k=10&filter=proto%3D17", &resp)
		if len(resp.Flows) != 1 || resp.Flows[0].Proto != 17 {
			t.Fatalf("filtered flows = %+v", resp.Flows)
		}
		// The only proto-17 flow ranks below the global top 1: a filtered
		// k=1 query must still surface it (filter before the k cut).
		get(t, srv, "/v1/topk?k=1&filter=proto%3D17", &resp)
		if len(resp.Flows) != 1 || resp.Flows[0].Proto != 17 {
			t.Fatalf("filtered k=1 flows = %+v", resp.Flows)
		}
	})

	t.Run("epochs", func(t *testing.T) {
		var resp EpochsResponse
		if code := get(t, srv, "/v1/epochs", &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(resp.Epochs) != 3 || resp.Truncated {
			t.Fatalf("epochs = %+v", resp)
		}
		if resp.Epochs[1].Records != 1 {
			t.Errorf("epoch 1 records = %d, want 1", resp.Epochs[1].Records)
		}
	})

	t.Run("flows-filter", func(t *testing.T) {
		var resp FlowsResponse
		get(t, srv, "/v1/flows?filter=dport%3D443", &resp)
		if resp.EpochsScanned != 3 || resp.Matched != 2 {
			t.Fatalf("scanned %d matched %d, want 3/2", resp.EpochsScanned, resp.Matched)
		}
		if resp.Flows[0].Epoch != 0 || resp.Flows[1].Epoch != 2 {
			t.Errorf("flow epochs = %d,%d want 0,2", resp.Flows[0].Epoch, resp.Flows[1].Epoch)
		}
	})

	t.Run("flows-epoch", func(t *testing.T) {
		var resp FlowsResponse
		get(t, srv, "/v1/flows?epoch=1", &resp)
		if resp.EpochsScanned != 1 || resp.Matched != 1 || resp.Flows[0].Dport != 53 {
			t.Fatalf("epoch=1 resp = %+v", resp)
		}
		if code := get(t, srv, "/v1/flows?epoch=9", nil); code != http.StatusBadRequest {
			t.Errorf("out-of-range epoch gave status %d", code)
		}
	})

	t.Run("flows-time-range", func(t *testing.T) {
		var resp FlowsResponse
		// Epoch timestamps are 1700000000 + 300i; [1700000300, 1700000600).
		get(t, srv, "/v1/flows?from=1700000300&to=1700000600", &resp)
		if resp.EpochsScanned != 1 || resp.Flows[0].Proto != 17 {
			t.Fatalf("time-range resp = %+v", resp)
		}
	})

	t.Run("flows-limit", func(t *testing.T) {
		var resp FlowsResponse
		get(t, srv, "/v1/flows?limit=1", &resp)
		if !resp.Limited || len(resp.Flows) != 1 {
			t.Fatalf("limited resp = %+v", resp)
		}
	})

	t.Run("netwide", func(t *testing.T) {
		var resp TopKResponse
		if code := get(t, srv, "/v1/netwide/topk?k=2", &resp); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if len(resp.Sources) != 2 {
			t.Fatalf("sources = %v", resp.Sources)
		}
		// 10.0.0.1:443 appears at both vantage points: 500+400.
		if resp.Flows[0].Src != "10.0.0.1" || resp.Flows[0].Packets != 900 {
			t.Fatalf("netwide rank 0 = %+v", resp.Flows[0])
		}
		if resp.Flows[1].Src != "10.0.0.9" || resp.Flows[1].Packets != 350 {
			t.Fatalf("netwide rank 1 = %+v", resp.Flows[1])
		}
		// Filtered netwide: the top matching flow below the global top k
		// must surface (filter applies before the k cut).
		get(t, srv, "/v1/netwide/topk?k=1&filter=proto%3D17", &resp)
		if len(resp.Flows) != 1 || resp.Flows[0].Proto != 17 {
			t.Fatalf("filtered netwide = %+v", resp.Flows)
		}
	})

	t.Run("errors", func(t *testing.T) {
		if code := get(t, srv, "/v1/topk?k=0", nil); code != http.StatusBadRequest {
			t.Errorf("k=0 gave %d", code)
		}
		if code := get(t, srv, "/v1/topk?bogus=1", nil); code != http.StatusBadRequest {
			t.Errorf("unknown param gave %d", code)
		}
		if code := get(t, srv, "/v1/flows?filter=nope", nil); code != http.StatusBadRequest {
			t.Errorf("bad filter gave %d", code)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/topk", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST gave %d", resp.StatusCode)
		}
	})
}

// TestHandlerUnconfigured: endpoints without a backing source 404 rather
// than panic.
func TestHandlerUnconfigured(t *testing.T) {
	srv := httptest.NewServer(NewHandler(Config{}))
	defer srv.Close()
	for _, path := range []string{"/v1/topk", "/v1/epochs", "/v1/flows", "/v1/netwide/topk"} {
		if code := get(t, srv, path, nil); code != http.StatusNotFound {
			t.Errorf("%s on empty config gave %d, want 404", path, code)
		}
	}
}

// TestStaticStore serves from one long-lived mapping.
func TestStaticStore(t *testing.T) {
	m, err := recordstore.OpenMapped(testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewHandler(Config{Store: StaticStore(m)}))
	defer srv.Close()
	var resp EpochsResponse
	get(t, srv, "/v1/epochs", &resp)
	if len(resp.Epochs) != 3 {
		t.Fatalf("epochs = %+v", resp)
	}
}

// TestFileStoreSeesGrowth: the per-request opener reflects epochs appended
// after the server started — the live-collector serving mode.
func TestFileStoreSeesGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.frec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := recordstore.NewWriter(f)
	if err := w.WriteEpoch(time.Unix(1, 0), []flow.Record{{Key: flow.Key{SrcIP: 1}, Count: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(Config{Store: FileStore(path)}))
	defer srv.Close()
	var resp EpochsResponse
	get(t, srv, "/v1/epochs", &resp)
	if len(resp.Epochs) != 1 {
		t.Fatalf("first read: %d epochs, want 1", len(resp.Epochs))
	}

	if err := w.WriteEpoch(time.Unix(2, 0), []flow.Record{{Key: flow.Key{SrcIP: 2}, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/epochs", &resp)
	if len(resp.Epochs) != 2 {
		t.Fatalf("after growth: %d epochs, want 2", len(resp.Epochs))
	}
}

func TestParseParamsDefaults(t *testing.T) {
	p, err := ParseParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != DefaultK || p.Limit != DefaultLimit || p.Epoch != -1 {
		t.Fatalf("defaults = %+v", p)
	}
	if !p.From.IsZero() || !p.To.IsZero() {
		t.Fatalf("time defaults = %+v", p)
	}
}

// TestFlowsTimeRangeBoundaries pins the half-open [from, to) convention
// end to end through /flows: an epoch stamped exactly from is scanned,
// one stamped exactly to is not — agreeing with recordstore.Mapped.Range
// at the first and last epoch of the store.
func TestFlowsTimeRangeBoundaries(t *testing.T) {
	store := testStore(t) // epochs at 1700000000 + 300i, i in 0..2
	srv := httptest.NewServer(NewHandler(Config{Store: FileStore(store)}))
	defer srv.Close()

	at := func(e int) string {
		return time.Unix(int64(1700000000+300*e), 0).UTC().Format(time.RFC3339)
	}
	cases := []struct {
		name    string
		q       string
		scanned int
	}{
		{"from first to second scans only first", "from=" + at(0) + "&to=" + at(1), 1},
		{"from == first epoch is inclusive", "from=" + at(0), 3},
		{"to == last epoch is exclusive", "to=" + at(2), 2},
		{"to past last includes it", "to=" + at(3), 3},
		{"from == to is empty", "from=" + at(1) + "&to=" + at(1), 0},
		{"middle window", "from=" + at(1) + "&to=" + at(2), 1},
	}
	for _, tc := range cases {
		var resp FlowsResponse
		if code := get(t, srv, "/v1/flows?"+tc.q, &resp); code != http.StatusOK {
			t.Fatalf("%s: status %d", tc.name, code)
		}
		if resp.EpochsScanned != tc.scanned {
			t.Errorf("%s: scanned %d epochs, want %d", tc.name, resp.EpochsScanned, tc.scanned)
		}
	}
}
