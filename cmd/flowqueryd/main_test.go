package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/flow"
	"repro/netflow"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
)

func writeStore(t *testing.T, name string, epochs ...[]flow.Record) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := recordstore.NewWriter(f)
	for i, recs := range epochs {
		if err := w.WriteEpoch(time.Unix(int64(1700000000+60*i), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

// probeTCP reserves an ephemeral TCP port.
func probeTCP(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func getJSON(t *testing.T, url string, out any) error {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestDaemonArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("accepted empty source config")
	}
	if err := run([]string{"-store", "/does/not/exist.frec"}, &buf); err == nil {
		t.Error("accepted missing store")
	}
	if err := run([]string{"-detect", "-store", "/does/not/exist.frec"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "netflow") {
		t.Errorf("-detect without -netflow: %v", err)
	}
}

func TestDaemonServesStores(t *testing.T) {
	hh := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	primary := writeStore(t, "sw1.frec",
		[]flow.Record{
			{Key: hh, Count: 1000},
			{Key: flow.Key{SrcIP: 0x0A000002, DstPort: 80, Proto: 6}, Count: 10},
		},
		[]flow.Record{{Key: hh, Count: 500}},
	)
	secondary := writeStore(t, "sw2.frec",
		[]flow.Record{{Key: hh, Count: 700}},
	)

	addr := probeTCP(t)
	var (
		wg     sync.WaitGroup
		out    bytes.Buffer
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = run([]string{"-listen", addr, "-store", primary, "-store", secondary,
			"-for", "3s"}, &out)
	}()
	base := "http://" + addr
	waitUp(t, base+"/v1/epochs")

	var eps query.EpochsResponse
	if err := getJSON(t, base+"/v1/epochs", &eps); err != nil {
		t.Fatal(err)
	}
	if len(eps.Epochs) != 2 {
		t.Fatalf("epochs = %+v", eps)
	}

	var flows query.FlowsResponse
	if err := getJSON(t, base+"/v1/flows?filter=dport%3D443", &flows); err != nil {
		t.Fatal(err)
	}
	if flows.Matched != 2 {
		t.Fatalf("matched %d, want 2", flows.Matched)
	}

	// /topk without a live feed answers from the primary store summary:
	// the 443 flow sums to 1500 across its epochs.
	var tk query.TopKResponse
	if err := getJSON(t, base+"/v1/topk?k=1", &tk); err != nil {
		t.Fatal(err)
	}
	if len(tk.Flows) != 1 || tk.Flows[0].Packets != 1500 {
		t.Fatalf("topk = %+v", tk.Flows)
	}

	// /netwide/topk merges both stores: 1500 + 700.
	var nw query.TopKResponse
	if err := getJSON(t, base+"/v1/netwide/topk?k=1", &nw); err != nil {
		t.Fatal(err)
	}
	if len(nw.Sources) != 2 {
		t.Fatalf("netwide sources = %v", nw.Sources)
	}
	if len(nw.Flows) != 1 || nw.Flows[0].Packets != 2200 {
		t.Fatalf("netwide topk = %+v", nw.Flows)
	}

	wg.Wait()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
}

// probeUDP reserves an ephemeral UDP port.
func probeUDP(t *testing.T) string {
	t.Helper()
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := conn.LocalAddr().String()
	conn.Close()
	return addr
}

// sendEpoch exports one epoch's records as NetFlow v5 to a vantage.
func sendEpoch(t *testing.T, addr string, recs []flow.Record) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exp := netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})
	if err := exp.Export(recs, 700); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonCorrelatesVantages drives two live NetFlow vantages end to
// end: a key spiking at both in the same epoch must surface on
// /netwide/alerts with evidence from each vantage.
func TestDaemonCorrelatesVantages(t *testing.T) {
	nf1, nf2 := probeUDP(t), probeUDP(t)
	addr := probeTCP(t)
	var (
		wg     sync.WaitGroup
		out    bytes.Buffer
		runErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = run([]string{"-listen", addr, "-netflow", nf1, "-netflow", nf2,
			"-detect", "-changedelta", "1024", "-gap", "300ms", "-for", "6s"}, &out)
	}()
	base := "http://" + addr
	waitUp(t, base+"/v1/alerts")

	hot := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	cold := flow.Key{SrcIP: 0x0A000002, DstIP: 0x0A000064, DstPort: 80, Proto: 6}
	epoch0 := []flow.Record{{Key: hot, Count: 100}, {Key: cold, Count: 90}}
	epoch1 := []flow.Record{{Key: hot, Count: 5000}, {Key: cold, Count: 95}}
	for _, ep := range [][]flow.Record{epoch0, epoch1} {
		sendEpoch(t, nf1, ep)
		sendEpoch(t, nf2, ep)
		// Silence past the quiet gap closes the epoch at both vantages.
		time.Sleep(600 * time.Millisecond)
	}

	var nw query.NetwideAlertsResponse
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) {
		if err := getJSON(t, base+"/v1/netwide/alerts", &nw); err == nil && nw.Matched > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if nw.Matched != 1 || len(nw.Alerts) != 1 {
		t.Fatalf("netwide alerts: %+v\ndaemon output:\n%s", nw, out.String())
	}
	a := nw.Alerts[0]
	if a.Kind != "netwide" || a.Flow == nil || a.Flow.Src != "10.0.0.1" {
		t.Errorf("promoted alert: %+v", a)
	}
	if len(a.Evidence) != 2 || !a.Evidence[0].Alerted || !a.Evidence[1].Alerted {
		t.Errorf("evidence: %+v", a.Evidence)
	}

	// The per-vantage surface works too: /alerts serves the first
	// vantage's detector, which saw the same heavy change locally.
	var al query.AlertsResponse
	if err := getJSON(t, base+"/v1/alerts?kind=heavychange", &al); err != nil {
		t.Fatal(err)
	}
	if al.Matched == 0 {
		t.Errorf("first vantage's detector saw no heavy change")
	}

	// Ops surface: per-vantage metrics carry distinct labels, and the
	// health snapshot lists both vantages.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBytes := new(bytes.Buffer)
	if _, err := promBytes.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	prom := promBytes.String()
	for _, nf := range []string{nf1, nf2} {
		want := fmt.Sprintf("collector_datagrams_total{vantage=%q}", nf)
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(prom, "detect_alerts_total") {
		t.Error("/metrics missing detect_alerts_total")
	}
	var h telemetry.Health
	if err := getJSON(t, base+"/healthz", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || len(h.Vantages) != 2 {
		t.Errorf("healthz = %+v, want ok with 2 vantages", h)
	}
	if h.Epochs == 0 {
		t.Error("healthz reports zero epochs after live ingest")
	}

	wg.Wait()
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
}

// waitUp polls until the daemon answers.
func waitUp(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never came up", url)
}
