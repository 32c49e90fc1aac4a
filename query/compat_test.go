// Contract tests of the /v1 surface: golden success bytes, the error
// envelope, the request checks every endpoint shares, and the not_found
// answer for every other path.
package query

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/flow"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
)

// getRaw fetches path and returns the status, headers and exact body.
func getRaw(t *testing.T, srv *httptest.Server, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// compatServer serves every endpoint family from deterministic fixtures.
func compatServer(t *testing.T) *httptest.Server {
	t.Helper()
	tk := liveTracker(t)
	srv := httptest.NewServer(NewHandler(Config{
		TopK:    tk,
		Store:   FileStore(testStore(t)),
		Netwide: []NamedSource{{Name: "sw1", Source: tk}},
		Alerts:  testDetector(t),
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestV1GoldenBytes pins the exact response bytes of the store-backed
// endpoints. The success bodies are the ones the unversioned paths served
// before they were removed: a diff here is a breaking change for clients,
// not a test to update casually.
func TestV1GoldenBytes(t *testing.T) {
	srv := compatServer(t)

	goldens := map[string]string{
		"/v1/epochs": `{
  "epochs": [
    {
      "index": 0,
      "time": "2023-11-14T22:13:20.000Z",
      "records": 2
    },
    {
      "index": 1,
      "time": "2023-11-14T22:18:20.000Z",
      "records": 1
    },
    {
      "index": 2,
      "time": "2023-11-14T22:23:20.000Z",
      "records": 1
    }
  ],
  "truncated": false
}
`,
		"/v1/flows?epoch=1": `{
  "epochs_scanned": 1,
  "matched": 1,
  "limited": false,
  "flows": [
    {
      "epoch": 1,
      "src": "10.0.0.3",
      "sport": 0,
      "dst": "10.0.0.100",
      "dport": 53,
      "proto": 17,
      "packets": 7
    }
  ]
}
`,
		"/v1/topk?k=1": `{
  "k": 1,
  "flows": [
    {
      "src": "10.0.0.1",
      "sport": 0,
      "dst": "0.0.0.0",
      "dport": 443,
      "proto": 6,
      "packets": 500
    }
  ]
}
`,
		"/v1/flows?epoch=99": `{
  "error": {
    "code": "bad_request",
    "message": "epoch 99 out of range [0,3)"
  }
}
`,
	}
	for path, want := range goldens {
		_, hdr, body := getRaw(t, srv, path)
		if body != want {
			t.Errorf("GET %s body diverged from golden:\ngot:  %q\nwant: %q", path, body, want)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
	}
}

// TestV1ErrorEnvelope: failures render {"error":{"code","message"}} with
// the code matching the status.
func TestV1ErrorEnvelope(t *testing.T) {
	srv := compatServer(t)

	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/flows?epoch=99", http.StatusBadRequest, "bad_request"},
		{"/v1/flows?bogus=1", http.StatusBadRequest, "bad_request"},
		{"/v1/events", http.StatusNotFound, "not_found"},
		{"/v1/trace/epochs", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		var env ErrorEnvelope
		if code := get(t, srv, tc.path, &env); code != tc.status {
			t.Errorf("GET %s status %d, want %d", tc.path, code, tc.status)
		}
		if env.Error.Code != tc.code || env.Error.Message == "" {
			t.Errorf("GET %s envelope = %+v, want code %q", tc.path, env.Error, tc.code)
		}
	}
}

// TestV1PayloadParity: every /v1 payload is byte-identical whichever way
// the same store is opened — a flat file reopened per request
// (FileStore) or one mapping held for the server's life (StaticStore) —
// and no /v1 response carries a Deprecation header.
func TestV1PayloadParity(t *testing.T) {
	path := testStore(t)
	m, err := recordstore.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	serve := func(store StoreOpener) *httptest.Server {
		tk := liveTracker(t)
		srv := httptest.NewServer(NewHandler(Config{
			TopK:    tk,
			Store:   store,
			Netwide: []NamedSource{{Name: "sw1", Source: tk}},
			Alerts:  testDetector(t),
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	file, mapped := serve(FileStore(path)), serve(StaticStore(m))

	paths := []string{
		"/v1/topk?k=2",
		"/v1/epochs",
		"/v1/epochs?limit=2",
		"/v1/flows?filter=proto%3D17",
		"/v1/flows?from=1700000300&to=1700000600",
		"/v1/flows?epoch=99", // the same 400 envelope from both
		"/v1/netwide/topk?k=2",
		"/v1/alerts",
		"/v1/alerts?kind=superspreader",
		"/v1/changes?k=5",
		"/v1/trace/epochs", // 404s identically: no tracer configured
	}
	for _, p := range paths {
		fileStatus, fileHdr, fileBody := getRaw(t, file, p)
		mappedStatus, mappedHdr, mappedBody := getRaw(t, mapped, p)
		if fileStatus != mappedStatus {
			t.Errorf("GET %s: FileStore %d vs StaticStore %d", p, fileStatus, mappedStatus)
		}
		if fileBody != mappedBody {
			t.Errorf("GET %s: payloads diverge between stores:\nfile:   %q\nmapped: %q", p, fileBody, mappedBody)
		}
		if fileHdr.Get("Deprecation") != "" || mappedHdr.Get("Deprecation") != "" {
			t.Errorf("GET %s carries a Deprecation header", p)
		}
	}
}

// TestStrictParams: /v1 checks every parameter name against the
// endpoint's vocabulary; there is no lenient surface and no strict=
// switch left to opt into it.
func TestStrictParams(t *testing.T) {
	srv := compatServer(t)

	// epoch= is meaningful on /flows but not /topk.
	if status, _, body := getRaw(t, srv, "/v1/topk?k=1&epoch=1"); status != http.StatusBadRequest || !strings.Contains(body, `\"epoch\"`) {
		t.Errorf("/v1/topk?epoch= = %d %q, want 400 naming epoch", status, body)
	}
	if status, _, _ := getRaw(t, srv, "/v1/topk?k=1&filter=proto%3D6"); status != http.StatusOK {
		t.Errorf("/v1/topk with applicable params rejected")
	}
	// strict is no longer a parameter of any endpoint.
	for _, p := range []string{"/v1/topk?k=1&strict=1", "/v1/flows?strict=1", "/v1/alerts?strict=0"} {
		if status, _, body := getRaw(t, srv, p); status != http.StatusBadRequest || !strings.Contains(body, `\"strict\"`) {
			t.Errorf("GET %s = %d %q, want 400 naming strict", p, status, body)
		}
	}
	if _, err := ParseParams(url.Values{"strict": {"1"}}); err == nil {
		t.Error("ParseParams accepted strict=1")
	}
	if _, err := ParseAlertParams(url.Values{"strict": {"1"}}); err == nil {
		t.Error("ParseAlertParams accepted strict=1")
	}
	if _, err := ParseEventParams(url.Values{"strict": {"1"}}); err == nil {
		t.Error("ParseEventParams accepted strict=1")
	}
	// Unknown keys fail on /v1; the lenient unversioned path is gone.
	if status, _, _ := getRaw(t, srv, "/v1/topk?bogus=1"); status != http.StatusBadRequest {
		t.Errorf("/v1 unknown key accepted")
	}
	if status, _, _ := getRaw(t, srv, "/topk?k=1&epoch=1"); status != http.StatusNotFound {
		t.Errorf("unversioned /topk status %d, want 404", status)
	}
}

// TestUnknownPathNotFound: a path no endpoint serves — including the
// removed unversioned aliases — answers the not_found envelope pointing
// at /v1/, and adds no per-path metric series.
func TestUnknownPathNotFound(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := httptest.NewServer(NewHandler(Config{TopK: liveTracker(t), Registry: reg}))
	defer srv.Close()

	for _, path := range []string{"/v1/nope", "/topk", "/topk?k=1", "/"} {
		var env ErrorEnvelope
		if code := get(t, srv, path, &env); code != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404", path, code)
		}
		if env.Error.Code != "not_found" || !strings.Contains(env.Error.Message, "/v1/") {
			t.Errorf("GET %s envelope = %+v", path, env.Error)
		}
	}
	var metrics strings.Builder
	if err := reg.WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(metrics.String(), "http_requests_total") {
		t.Errorf("unknown paths were counted:\n%s", metrics.String())
	}
}

// TestSharedRequestChecks runs the checks register applies to every
// endpoint, in their one order: the method (405), then the parameter
// vocabulary (400), then the endpoint's source (404), then the parameter
// values (400). Each endpoint gets a foreign parameter that another
// endpoint accepts and would parse, so only its own vocabulary rejects it.
func TestSharedRequestChecks(t *testing.T) {
	tk := liveTracker(t)
	configured := httptest.NewServer(NewHandler(Config{
		TopK:          tk,
		Store:         FileStore(testStore(t)),
		Netwide:       []NamedSource{{Name: "sw1", Source: tk}},
		Alerts:        testDetector(t),
		NetwideAlerts: testCorrelator(t),
		Events:        events.NewBus(8),
		Trace:         events.NewTracer(4),
	}))
	defer configured.Close()
	bare := httptest.NewServer(NewHandler(Config{}))
	defer bare.Close()

	endpoints := []struct {
		path     string
		foreign  string // a parameter outside the endpoint's vocabulary
		badValue string // a parameter inside it, with a value that fails to parse
	}{
		{"/v1/topk", "epoch=1", "k=0"},
		{"/v1/epochs", "k=1", "limit=0"},
		{"/v1/flows", "k=1", "filter=nope"},
		{"/v1/netwide/topk", "epoch=1", "k=0"},
		{"/v1/netwide/alerts", "k=1", "kind=bogus"},
		{"/v1/alerts", "k=1", "severity=bogus"},
		{"/v1/changes", "severity=warning", "epoch=-1"},
		{"/v1/events", "limit=1", "after=zzz"},
		{"/v1/trace/epochs", "after=1", "limit=0"},
	}
	check := func(t *testing.T, srv *httptest.Server, method, path string, status int, code string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env ErrorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
		if resp.StatusCode != status || env.Error.Code != code {
			t.Errorf("%s %s = %d %+v, want %d %s", method, path, resp.StatusCode, env.Error, status, code)
		}
	}
	for _, ep := range endpoints {
		t.Run(strings.TrimPrefix(ep.path, "/v1/"), func(t *testing.T) {
			everything := ep.path + "?" + ep.foreign + "&" + ep.badValue
			check(t, configured, http.MethodPost, ep.path, http.StatusMethodNotAllowed, "method_not_allowed")
			check(t, bare, http.MethodPost, everything, http.StatusMethodNotAllowed, "method_not_allowed")
			check(t, configured, http.MethodGet, ep.path+"?"+ep.foreign, http.StatusBadRequest, "bad_request")
			check(t, bare, http.MethodGet, everything, http.StatusBadRequest, "bad_request")
			check(t, bare, http.MethodGet, ep.path, http.StatusNotFound, "not_found")
			check(t, bare, http.MethodGet, ep.path+"?"+ep.badValue, http.StatusNotFound, "not_found")
			check(t, configured, http.MethodGet, ep.path+"?"+ep.badValue, http.StatusBadRequest, "bad_request")
		})
	}
}

// TestTieredStoreThroughHandler: the HTTP surface serves a tiered
// directory transparently — tier labels on /v1/epochs, time-ranged
// /v1/flows answered from cold segments.
func TestTieredStoreThroughHandler(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := recordstore.OpenTiered(dir, recordstore.TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for e := 0; e < 8; e++ {
		recs := []flow.Record{
			{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}, Count: uint32(100 + e)},
		}
		if err := tw.WriteEpoch(base.Add(time.Duration(e)*time.Minute), recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(Config{Store: FileStore(dir)}))
	defer srv.Close()

	var eps EpochsResponse
	if code := get(t, srv, "/v1/epochs", &eps); code != http.StatusOK {
		t.Fatalf("epochs status %d", code)
	}
	if len(eps.Epochs) != 8 {
		t.Fatalf("tiered /epochs lists %d", len(eps.Epochs))
	}
	if eps.Epochs[0].Tier != "cold" || eps.Epochs[7].Tier != "" {
		t.Fatalf("tier labels: first %q last %q", eps.Epochs[0].Tier, eps.Epochs[7].Tier)
	}

	var flows FlowsResponse
	path := "/v1/flows?from=1700000060&to=1700000180"
	if code := get(t, srv, path, &flows); code != http.StatusOK {
		t.Fatalf("flows status %d", code)
	}
	if flows.EpochsScanned != 2 || flows.Matched != 2 {
		t.Fatalf("time-ranged flows = %+v", flows)
	}
	if flows.Flows[0].Packets != 101 || flows.Flows[1].Packets != 102 {
		t.Fatalf("cold flows payload = %+v", flows.Flows)
	}

	// limit= on /v1/epochs cuts the listing and says so.
	if code := get(t, srv, "/v1/epochs?limit=3", &eps); code != http.StatusOK {
		t.Fatal("epochs limit status")
	}
	if len(eps.Epochs) != 3 || !eps.Limited {
		t.Fatalf("limited epochs = %d limited=%v", len(eps.Epochs), eps.Limited)
	}
}
