package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/flow"
	"repro/netflow"
	"repro/query"
)

// waitUntil polls cond every 20ms until it holds or timeout passes.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// liveServe is one running `flowcollect serve -detect -http` over a
// store path, fed by a NetFlow exporter and stopped by SIGTERM.
type liveServe struct {
	t    *testing.T
	base string // http://host:port
	out  *lockedBuf
	done chan error
	exp  *netflow.Exporter
	conn net.Conn
}

func startLiveServe(t *testing.T, store string) *liveServe {
	t.Helper()
	udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	udpAddr := udpProbe.LocalAddr().String()
	udpProbe.Close()
	tcpProbe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := tcpProbe.Addr().String()
	tcpProbe.Close()

	s := &liveServe{t: t, base: "http://" + httpAddr, out: &lockedBuf{}, done: make(chan error, 1)}
	go func() {
		s.done <- run([]string{"serve", "-listen", udpAddr, "-store", store,
			"-gap", "150ms", "-for", "1h", "-http", httpAddr,
			"-detect", "-changedelta", "500"}, s.out)
	}()
	waitUntil(t, 5*time.Second, "serve to come up", func() bool {
		return strings.Contains(s.out.String(), "serving on")
	})
	if s.conn, err = net.Dial("udp", udpAddr); err != nil {
		t.Fatal(err)
	}
	s.exp = netflow.NewExporter(func(b []byte) error {
		_, err := s.conn.Write(b)
		return err
	})
	return s
}

// storedEpochs is the length of the /v1/epochs listing; a fresh store
// lists zero epochs, so any request error fails the test.
func (s *liveServe) storedEpochs() int {
	s.t.Helper()
	var eps query.EpochsResponse
	if err := getJSON(s.base+"/v1/epochs", &eps); err != nil {
		s.t.Fatalf("/v1/epochs: %v", err)
	}
	return len(eps.Epochs)
}

// sendEpoch exports recs and waits until the quiet gap has closed them
// into the store's next epoch.
func (s *liveServe) sendEpoch(recs []flow.Record) {
	s.t.Helper()
	before := s.storedEpochs()
	if err := s.exp.Export(recs, 700); err != nil {
		s.t.Fatal(err)
	}
	waitUntil(s.t, 5*time.Second, fmt.Sprintf("epoch %d to be stored", before),
		func() bool { return s.storedEpochs() > before })
}

// stop shuts the serve loop down the way an operator would, and waits.
func (s *liveServe) stop() {
	s.t.Helper()
	s.conn.Close()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		s.t.Fatal(err)
	}
	select {
	case err := <-s.done:
		if err != nil {
			s.t.Fatalf("serve: %v\n%s", err, s.out.String())
		}
	case <-time.After(10 * time.Second):
		s.t.Fatal("serve did not shut down within 10s of SIGTERM")
	}
}

// TestServeAlertEpochNamesStoredEpoch: across a restart, an alert's epoch
// is the store index of the epoch that raised it. Run 1 stores quiet
// epochs; run 2 on the same store sends one more quiet epoch and then a
// spike. The heavy-change alert's epoch must resolve, through
// /v1/flows?epoch=, to the spiked epoch — not to an epoch of run 1 that
// happens to share a per-process count.
func TestServeAlertEpochNamesStoredEpoch(t *testing.T) {
	store := filepath.Join(t.TempDir(), "restart.frec")
	hot := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	quiet := []flow.Record{{Key: hot, Count: 100}}
	const spiked = 5100

	run1 := startLiveServe(t, store)
	for i := 0; i < 3; i++ {
		run1.sendEpoch(quiet)
	}
	run1.stop()

	run2 := startLiveServe(t, store)
	defer run2.stop()
	run2.sendEpoch(quiet)
	run2.sendEpoch([]flow.Record{{Key: hot, Count: spiked}})

	var alert *query.AlertJSON
	waitUntil(t, 5*time.Second, "a heavy-change alert", func() bool {
		var alerts query.AlertsResponse
		if err := getJSON(run2.base+"/v1/alerts?kind=heavychange", &alerts); err != nil {
			t.Fatalf("/v1/alerts: %v", err)
		}
		if len(alerts.Alerts) > 0 {
			alert = &alerts.Alerts[0]
		}
		return alert != nil
	})
	if want := run2.storedEpochs() - 1; alert.Epoch != want {
		t.Errorf("alert names epoch %d, the spike is store index %d", alert.Epoch, want)
	}
	var flows query.FlowsResponse
	if err := getJSON(fmt.Sprintf("%s/v1/flows?epoch=%d", run2.base, alert.Epoch), &flows); err != nil {
		t.Fatalf("/v1/flows?epoch=%d: %v", alert.Epoch, err)
	}
	if len(flows.Flows) != 1 || flows.Flows[0].Packets != spiked {
		t.Fatalf("/v1/flows?epoch=%d = %+v, want the spiked epoch (%d packets)", alert.Epoch, flows.Flows, spiked)
	}
}
