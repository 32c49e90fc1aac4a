package main

import (
	"net"
	"strings"
	"sync"
	"testing"
)

func TestParseDone(t *testing.T) {
	out := strings.Join([]string{
		"serving on 127.0.0.1:9999 for 1h0m0s (epoch gap 250ms), storing to /tmp/x.frec",
		"received terminated, shutting down",
		"done: 42 datagrams, 126 records, 14 epochs, 0 lost, 0 bad",
		"detection: 14 epochs evaluated, 3 alerts retained",
	}, "\n")
	st, err := parseDone(out)
	if err != nil {
		t.Fatal(err)
	}
	want := doneStats{datagrams: 42, records: 126, epochs: 14, lost: 0, bad: 0}
	if st != want {
		t.Fatalf("parsed %+v, want %+v", st, want)
	}
}

func TestParseDoneMissing(t *testing.T) {
	if _, err := parseDone("serving on ...\nno summary here\n"); err == nil {
		t.Fatal("parseDone accepted output with no summary line")
	}
}

func TestParseDoneMalformed(t *testing.T) {
	if _, err := parseDone("done: banana\n"); err == nil {
		t.Fatal("parseDone accepted a malformed summary")
	}
}

// TestRampMatchesPinnedScenario guards the coupling between this harness
// and detect/seed_test.go: the live soak replays exactly the ramp the
// in-process test proved re-alerts within the budget after a warm
// restart and stays quiet cold. If this fails, re-derive both together.
func TestRampMatchesPinnedScenario(t *testing.T) {
	if rampBase != 2000 || rampStep != 300 || rampThreshold != 2200 ||
		rampWarmup != 10 || rampKillAfter != 4 || rampBudget != 5 {
		t.Fatalf("ramp constants drifted from detect/seed_test.go: base=%d step=%d threshold=%d warmup=%d killAfter=%d budget=%d",
			rampBase, rampStep, rampThreshold, rampWarmup, rampKillAfter, rampBudget)
	}
	if got := rampRecords(0)[0].Count; got != rampBase {
		t.Fatalf("stable epoch ramp flow count = %d, want %d", got, rampBase)
	}
	if got := rampRecords(3)[0].Count; got != rampBase+3*rampStep {
		t.Fatalf("ramp epoch 3 count = %d, want %d", got, rampBase+3*rampStep)
	}
	// Background flows must clear the default forecast admission floor so
	// they are modelled (and stay quiet), and must never ramp.
	for _, r := range rampRecords(7)[1:] {
		if r.Count != rampRecords(0)[1].Count && r.Count != rampRecords(0)[2].Count {
			t.Fatalf("background flow count %d changed with the ramp epoch", r.Count)
		}
	}
}

func TestLockedBufConcurrent(t *testing.T) {
	var b lockedBuf
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Write([]byte("x"))
			}
		}()
	}
	wg.Wait()
	if got := len(b.String()); got != 800 {
		t.Fatalf("captured %d bytes, want 800", got)
	}
}

func TestProbeAddrs(t *testing.T) {
	ua, err := probeUDP()
	if err != nil {
		t.Fatal(err)
	}
	ta, err := probeTCP()
	if err != nil {
		t.Fatal(err)
	}
	// The probed addresses must be immediately bindable (the collector
	// will bind them moments later).
	uaddr, err := net.ResolveUDPAddr("udp", ua)
	if err != nil {
		t.Fatal(err)
	}
	uc, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		t.Fatalf("probed UDP addr %s not bindable: %v", ua, err)
	}
	uc.Close()
	ln, err := net.Listen("tcp", ta)
	if err != nil {
		t.Fatalf("probed TCP addr %s not bindable: %v", ta, err)
	}
	ln.Close()
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-gap", "2s", "-epoch", "1s"}, &sb); err == nil {
		t.Fatal("run accepted -gap >= -epoch")
	}
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
}
