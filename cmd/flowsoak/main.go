// Command flowsoak is the kill/restart chaos harness for the collection
// pipeline: it builds the real flowcollect and flowqueryd binaries, runs
// them under sustained epoch-shaped NetFlow load, SIGKILLs the collectors
// mid-epoch, restarts them on their own store files, and asserts the
// crash-safety contract end to end:
//
//   - the restarted collector recovers its store (torn tail truncated, no
//     decode error, epoch count off by at most one),
//   - the detector that replays its store's tail at boot (the default
//     warm restart) re-alerts on a slow ramp that was in progress across
//     the crash within a bounded number of epochs, while an identical
//     collector restarted with -seedhistory 0 stays blind to it — the
//     controlled experiment that proves the stored epochs carry detection
//     state, not just bytes,
//   - a webhook receiver that 500s and stalls loses no alert deliveries
//     (the sink retries under backoff),
//   - flowqueryd answers /flows over the recovered store, and (full mode)
//     survives its own kill/restart and keeps its cross-vantage
//     correlator unwedged when one vantage goes dead,
//   - final loss accounting is sane: no phantom losses from the restarts.
//
// The ramp parameters mirror the pinned scenario in detect/seed_test.go
// (TestReplayRampRestore); change them there first.
//
//	flowsoak -quick   # one kill/restart cycle, ~30s: the CI smoke mode
//	flowsoak          # adds a queryd kill/restart and dead-vantage checks
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/flow"
	"repro/internal/faults"
	"repro/netflow"
	"repro/query"
	"repro/telemetry"
	"repro/telemetry/events"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowsoak:", err)
		os.Exit(1)
	}
}

// Ramp scenario, pinned by detect/seed_test.go: stable warmup at
// rampBase, then +rampStep per epoch against a CUSUM threshold of
// rampThreshold. Killed after rampKillAfter ramp epochs, a detector that
// replays the stored tail re-alerts within rampBudget epochs; a cold one
// does not.
const (
	rampBase      = 2000
	rampStep      = 300
	rampThreshold = 2200
	rampWarmup    = 10
	rampKillAfter = 4
	rampBudget    = 5
)

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flowsoak", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "one kill/restart cycle (~30s): the CI smoke mode")
	keep := fs.Bool("keep", false, "keep the scratch directory for post-mortem")
	epoch := fs.Duration("epoch", 500*time.Millisecond, "injected epoch period")
	gap := fs.Duration("gap", 250*time.Millisecond, "collector quiet gap (must be under -epoch)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gap >= *epoch {
		return errors.New("-gap must be shorter than -epoch")
	}

	dir, err := os.MkdirTemp("", "flowsoak-*")
	if err != nil {
		return err
	}
	if *keep {
		fmt.Fprintf(w, "scratch dir: %s (kept)\n", dir)
	} else {
		defer os.RemoveAll(dir)
	}

	s := &soak{
		w:     w,
		log:   slog.New(events.NewLogHandler(w, nil, "")),
		dir:   dir,
		quick: *quick,
		epoch: *epoch,
		gap:   *gap,
	}
	defer s.reap()
	return s.run()
}

// soak carries the harness state through the phases.
type soak struct {
	w     io.Writer
	log   *slog.Logger
	dir   string
	quick bool
	epoch time.Duration
	gap   time.Duration

	collectBin string
	querydBin  string

	hook   *faults.FlakyHandler
	hookLn net.Listener

	subject *member // restarts warm: replays its store's tail
	control *member // identical, but restarts cold (-seedhistory 0)

	procs []*proc // everything spawned, for reaping
}

// member is one collector under test: its network identity, files, load
// feed, and current process.
type member struct {
	name      string
	udpAddr   string
	httpAddr  string
	storePath string
	cold      bool // restart with -seedhistory 0 (the control)
	feed      *vantage
	proc      *proc
}

func (s *soak) logf(format string, a ...any) {
	s.log.Info(fmt.Sprintf(format, a...))
}

func (s *soak) run() error {
	if err := s.build(); err != nil {
		return err
	}
	if err := s.startWebhook(); err != nil {
		return err
	}
	defer s.hookLn.Close()

	// Phase 1: both collectors up, duplicated stable load.
	sub, err := s.startMember("subject", false)
	if err != nil {
		return err
	}
	s.subject = sub
	ctl, err := s.startMember("control", true)
	if err != nil {
		return err
	}
	s.control = ctl

	// A live /events client rides the subject through its kill/restart:
	// the stream must deliver epoch events before the crash, reconnect on
	// its own with Last-Event-ID, and carry the post-restart re-alert.
	watch := watchEvents(s.subject.httpAddr)
	defer watch.stop()

	s.logf("phase: warmup (%d stable epochs at %d pkts)", rampWarmup, rampBase)
	for e := 0; e < rampWarmup; e++ {
		if err := s.sendEpoch(0); err != nil {
			return err
		}
	}
	s.logf("phase: ramp (+%d pkts/epoch for %d epochs)", rampStep, rampKillAfter)
	for r := 1; r <= rampKillAfter; r++ {
		if err := s.sendEpoch(r); err != nil {
			return err
		}
	}
	// Let the final ramp epoch's quiet gap close and its store write land.
	time.Sleep(s.gap + 300*time.Millisecond)

	preKill, err := s.epochCount(s.subject)
	if err != nil {
		return fmt.Errorf("pre-kill epoch count: %w", err)
	}
	if preKill == 0 {
		return errors.New("no epochs stored before the kill: load never landed")
	}
	if n, err := s.forecastAlerts(s.subject); err != nil {
		return err
	} else if n != 0 {
		return fmt.Errorf("subject alerted before the kill (%d forecast alerts): ramp fired early, scenario invalid", n)
	}
	// The live telemetry must already show the load that landed.
	if v, err := s.metricValue(s.subject, "collector_datagrams_total"); err != nil {
		return fmt.Errorf("pre-kill /metrics scrape: %w", err)
	} else if v == 0 {
		return errors.New("pre-kill /metrics reports zero datagrams while the store holds epochs")
	}
	if _, sseEpochs, _, _ := watch.stats(); sseEpochs == 0 {
		return errors.New("SSE client saw no epoch events before the kill")
	}

	// Phase 2: SIGKILL both mid-epoch — a fresh batch lands and the kill
	// fires well inside the quiet gap, so the epoch is still open (and
	// therefore lost) when the process dies.
	s.logf("phase: SIGKILL both collectors mid-epoch (store holds %d epochs)", preKill)
	for _, m := range []*member{s.subject, s.control} {
		if err := m.feed.sendEpoch(rampRecords(rampKillAfter + 1)); err != nil {
			return fmt.Errorf("kill-epoch feed %s: %w", m.name, err)
		}
	}
	time.Sleep(s.gap / 4)
	for _, m := range []*member{s.subject, s.control} {
		if err := m.proc.kill9(); err != nil {
			return fmt.Errorf("kill %s: %w", m.name, err)
		}
	}

	// Phase 3: restart on the same stores; the recovery and replay lines
	// are the collector's own report of what it found.
	s.logf("phase: restart both collectors on their own stores")
	for _, m := range []*member{s.subject, s.control} {
		if err := s.respawn(m); err != nil {
			return err
		}
		line, err := m.proc.waitFor("store: recovered", 5*time.Second)
		if err != nil {
			return fmt.Errorf("%s printed no recovery line: %w", m.name, err)
		}
		// The structured line carries the count as epochs_intact=N; an
		// unparseable line only skips the count check.
		recovered := -1
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "epochs_intact="); ok {
				if n, err := strconv.Atoi(v); err == nil {
					recovered = n
				}
			}
		}
		if recovered >= 0 && recovered < preKill-1 {
			return fmt.Errorf("%s recovered %d epochs, had %d before the kill (allowed to lose at most 1)",
				m.name, recovered, preKill)
		}
	}
	if _, err := s.subject.proc.waitFor("seeded baselines from history", 5*time.Second); err != nil {
		return fmt.Errorf("subject did not replay its stored history: %w", err)
	}
	postKill, err := s.epochCount(s.subject)
	if err != nil {
		return fmt.Errorf("post-restart epoch count (recovered store does not serve): %w", err)
	}
	if postKill < preKill-1 {
		return fmt.Errorf("recovered store serves %d epochs, had %d pre-kill", postKill, preKill)
	}
	// The restarted daemons' own /healthz must report the same recovery
	// the log lines above announced — the structured surface a monitor
	// would watch instead of scraping stdout.
	for _, m := range []*member{s.subject, s.control} {
		h, err := s.healthz(m)
		if err != nil {
			return fmt.Errorf("%s /healthz: %w", m.name, err)
		}
		if h.Store == nil || h.Store.State != "recovered" {
			return fmt.Errorf("%s /healthz store = %+v, want state recovered", m.name, h.Store)
		}
		if h.Store.EpochsRecovered < preKill-1 {
			return fmt.Errorf("%s /healthz reports %d epochs recovered, had %d pre-kill",
				m.name, h.Store.EpochsRecovered, preKill)
		}
	}
	s.logf("recovery ok: %d epochs pre-kill, %d served after restart (healthz agrees)", preKill, postKill)

	// Phase 4: flap the webhook receiver — the first two deliveries after
	// restart get stalled 500s; the sink must retry them through.
	s.hook.FailNext(2, http.StatusInternalServerError)
	s.hook.StallNext(100 * time.Millisecond)

	// Phase 5: the ramp continues where it left off. Within the budget the
	// replayed subject must re-alert; the cold control must not.
	s.logf("phase: resume ramp for %d epochs (the re-alert budget)", rampBudget)
	for i := 1; i <= rampBudget; i++ {
		if err := s.sendEpoch(rampKillAfter + i); err != nil {
			return err
		}
	}
	time.Sleep(s.gap + 500*time.Millisecond) // close the last epoch, drain detection

	subAlerts, err := s.forecastAlerts(s.subject)
	if err != nil {
		return err
	}
	ctlAlerts, err := s.forecastAlerts(s.control)
	if err != nil {
		return err
	}
	if subAlerts == 0 {
		return fmt.Errorf("replayed subject raised no forecast alert within %d epochs: replay did not carry detection state", rampBudget)
	}
	if ctlAlerts != 0 {
		return fmt.Errorf("cold control raised %d forecast alerts within %d epochs: scenario no longer isolates replay value", ctlAlerts, rampBudget)
	}
	s.logf("detection continuity ok: subject re-alerted, control blind (as designed)")

	// The event stream must have survived the crash: reconnected by
	// itself, kept sequence continuity within each connection, and carried
	// the re-alert to a client that subscribed before the kill.
	watch.stop()
	sseConns, sseEpochs, sseAlerts, seqErr := watch.stats()
	if seqErr != nil {
		return fmt.Errorf("SSE sequence continuity: %w", seqErr)
	}
	if sseConns < 2 {
		return fmt.Errorf("SSE client held %d connection(s); never reconnected across the kill", sseConns)
	}
	if sseAlerts == 0 {
		return errors.New("replayed subject's re-alert never reached the SSE stream")
	}
	s.logf("sse ok: %d connections, %d epoch events, %d alert events, resume clean", sseConns, sseEpochs, sseAlerts)

	// Phase 6: flowqueryd over the recovered (still-growing) store.
	if err := s.checkQueryd(); err != nil {
		return err
	}

	// Phase 6b: a tiered-store collector killed while its background
	// compactor is active must lose no closed epoch.
	if err := s.tieredKillCheck(); err != nil {
		return err
	}

	if !s.quick {
		if err := s.fullModeChecks(); err != nil {
			return err
		}
	}

	// Phase 7: graceful shutdown; the final summaries carry the loss
	// accounting the restarts must not have corrupted.
	s.logf("phase: graceful shutdown")
	for _, m := range []*member{s.subject, s.control} {
		// Scrape the final counters while the daemon is still up; the
		// done line it prints at shutdown must agree with them (no
		// traffic lands between scrape and SIGTERM, so only the
		// shutdown flush itself may add one last epoch).
		mDatagrams, err := s.metricValue(m, "collector_datagrams_total")
		if err != nil {
			return fmt.Errorf("%s final /metrics scrape: %w", m.name, err)
		}
		mLost, err := s.metricValue(m, "collector_lost_total")
		if err != nil {
			return fmt.Errorf("%s final /metrics scrape: %w", m.name, err)
		}
		mEpochs, err := s.metricValue(m, "collector_epochs_total")
		if err != nil {
			return fmt.Errorf("%s final /metrics scrape: %w", m.name, err)
		}
		if err := m.proc.sigterm(10 * time.Second); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		stats, err := parseDone(m.proc.output())
		if err != nil {
			return fmt.Errorf("%s final summary: %w", m.name, err)
		}
		if int64(mDatagrams) != stats.datagrams {
			return fmt.Errorf("%s /metrics counted %d datagrams, done line says %d",
				m.name, int64(mDatagrams), stats.datagrams)
		}
		if int64(mLost) != stats.lost {
			return fmt.Errorf("%s /metrics counted %d lost, done line says %d",
				m.name, int64(mLost), stats.lost)
		}
		if e := int64(mEpochs); e != stats.epochs && e+1 != stats.epochs {
			return fmt.Errorf("%s /metrics counted %d epochs, done line says %d",
				m.name, e, stats.epochs)
		}
		if stats.bad != 0 {
			return fmt.Errorf("%s counted %d bad datagrams on a clean loopback", m.name, stats.bad)
		}
		if stats.lost > stats.records {
			return fmt.Errorf("%s loss accounting insane: %d lost > %d records", m.name, stats.lost, stats.records)
		}
		if stats.datagrams == 0 || stats.epochs == 0 {
			return fmt.Errorf("%s summary empty after the soak: %+v", m.name, stats)
		}
		s.logf("%s accounting: %d datagrams, %d records, %d epochs, %d lost", m.name, stats.datagrams, stats.records, stats.epochs, stats.lost)
	}

	// The flapped webhook must have both injected failures and eventual
	// successes: retried through, nothing abandoned.
	if s.hook.Failed() == 0 {
		return errors.New("webhook fault injection never triggered: no alert delivery hit the flapping window")
	}
	if s.hook.Served() == 0 {
		return errors.New("no webhook delivery ever landed: the retrying sink lost everything")
	}
	s.logf("webhook ok: %d injected failures, %d deliveries landed", s.hook.Failed(), s.hook.Served())

	s.logf("soak PASSED")
	return nil
}

// build compiles the binaries under test into the scratch dir.
func (s *soak) build() error {
	s.logf("phase: build flowcollect + flowqueryd")
	s.collectBin = filepath.Join(s.dir, "flowcollect")
	s.querydBin = filepath.Join(s.dir, "flowqueryd")
	for bin, pkg := range map[string]string{
		s.collectBin: "repro/cmd/flowcollect",
		s.querydBin:  "repro/cmd/flowqueryd",
	} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	return nil
}

// startWebhook serves the fault-injectable alert receiver.
func (s *soak) startWebhook() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.hook = &faults.FlakyHandler{}
	s.hookLn = ln
	srv := &http.Server{Handler: s.hook, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return nil
}

func (s *soak) hookURL() string {
	return "http://" + s.hookLn.Addr().String() + "/alerts"
}

// collectArgs is the serve command line of one member; identical between
// subject and control except for the control's cold restart.
func (s *soak) collectArgs(m *member) []string {
	args := []string{"serve",
		"-listen", m.udpAddr,
		"-http", m.httpAddr,
		"-store", m.storePath,
		"-fsync", "epoch",
		"-gap", s.gap.String(),
		"-for", "1h",
		"-detect",
		// Only the forecast stage may alert in this scenario: the ramp
		// must be invisible to the epoch-over-epoch delta pass.
		"-forecast", fmt.Sprint(rampThreshold),
		"-changedelta", "1000000000",
		"-webhook", s.hookURL(),
	}
	if m.cold {
		args = append(args, "-seedhistory", "0")
	}
	return args
}

// startMember provisions and starts one collector.
func (s *soak) startMember(name string, cold bool) (*member, error) {
	udpAddr, err := probeUDP()
	if err != nil {
		return nil, err
	}
	httpAddr, err := probeTCP()
	if err != nil {
		return nil, err
	}
	m := &member{
		name:      name,
		udpAddr:   udpAddr,
		httpAddr:  httpAddr,
		storePath: filepath.Join(s.dir, name+".frec"),
		cold:      cold,
	}
	if err := s.respawn(m); err != nil {
		return nil, err
	}
	if m.feed, err = dialVantage(udpAddr); err != nil {
		return nil, err
	}
	return m, nil
}

// respawn (re)starts a member's collector process and waits for it to
// come up.
func (s *soak) respawn(m *member) error {
	p, err := startProc(m.name, s.collectBin, s.collectArgs(m)...)
	if err != nil {
		return err
	}
	m.proc = p
	s.procs = append(s.procs, p)
	if _, err := p.waitFor("serving on", 10*time.Second); err != nil {
		return fmt.Errorf("%s never came up: %w", m.name, err)
	}
	return nil
}

// sendEpoch exports one epoch-shaped batch to both members and waits one
// epoch period so the quiet gap closes it. rampEpoch 0 is the stable
// phase; 1.. are ramp epochs.
func (s *soak) sendEpoch(rampEpoch int) error {
	recs := rampRecords(rampEpoch)
	for _, m := range []*member{s.subject, s.control} {
		if m == nil || m.feed == nil {
			continue
		}
		if err := m.feed.sendEpoch(recs); err != nil {
			return fmt.Errorf("feed %s: %w", m.name, err)
		}
	}
	time.Sleep(s.epoch)
	return nil
}

// rampRecords is the traffic of one epoch: the ramping subject flow plus
// steady background flows, mirroring detect/seed_test.go.
func rampRecords(rampEpoch int) []flow.Record {
	count := uint32(rampBase)
	if rampEpoch > 0 {
		count = uint32(rampBase + rampStep*rampEpoch)
	}
	return []flow.Record{
		{Key: flow.Key{SrcIP: 0xc0a80001, DstIP: 0xc0a80002, SrcPort: 50000, DstPort: 443, Proto: 6}, Count: count},
		{Key: flow.Key{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 40000, DstPort: 443, Proto: 6}, Count: 900},
		{Key: flow.Key{SrcIP: 0x0a000003, DstIP: 0x0a000004, SrcPort: 40001, DstPort: 53, Proto: 17}, Count: 300},
	}
}

// epochCount asks a member's own query API how many epochs its store
// serves.
func (s *soak) epochCount(m *member) (int, error) {
	return epochCountAt(m.httpAddr)
}

func epochCountAt(httpAddr string) (int, error) {
	var eps query.EpochsResponse
	if err := getJSON("http://"+httpAddr+"/v1/epochs", &eps); err != nil {
		return 0, err
	}
	return len(eps.Epochs), nil
}

// forecastAlerts counts a member's forecast alerts.
func (s *soak) forecastAlerts(m *member) (int, error) {
	var resp query.AlertsResponse
	if err := getJSON("http://"+m.httpAddr+"/v1/alerts?kind=forecast", &resp); err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// checkQueryd runs flowqueryd over the subject's recovered store and
// asserts /flows answers; in full mode it also kills and restarts it.
func (s *soak) checkQueryd() error {
	s.logf("phase: flowqueryd over the recovered store")
	addr, err := probeTCP()
	if err != nil {
		return err
	}
	args := []string{"-listen", addr, "-store", s.subject.storePath}
	qd, err := startProc("queryd", s.querydBin, args...)
	if err != nil {
		return err
	}
	s.procs = append(s.procs, qd)
	if _, err := qd.waitFor("flowqueryd serving on", 10*time.Second); err != nil {
		return err
	}
	flows, err := queryFlows(addr)
	if err != nil {
		return fmt.Errorf("/v1/flows over recovered store: %w", err)
	}
	if flows == 0 {
		return errors.New("/v1/flows over recovered store returned nothing")
	}
	s.logf("queryd ok: /v1/flows matched %d records", flows)

	if !s.quick {
		// Kill/restart the query daemon too: it must come back on the same
		// (still-growing) store.
		if err := qd.kill9(); err != nil {
			return err
		}
		qd2, err := startProc("queryd2", s.querydBin, args...)
		if err != nil {
			return err
		}
		s.procs = append(s.procs, qd2)
		if _, err := qd2.waitFor("flowqueryd serving on", 10*time.Second); err != nil {
			return err
		}
		if flows, err = queryFlows(addr); err != nil || flows == 0 {
			return fmt.Errorf("restarted queryd /v1/flows: %d matched, err %v", flows, err)
		}
		if err := qd2.sigterm(10 * time.Second); err != nil {
			return fmt.Errorf("queryd graceful shutdown: %w", err)
		}
		s.logf("queryd kill/restart ok")
	} else {
		if err := qd.sigterm(10 * time.Second); err != nil {
			return fmt.Errorf("queryd graceful shutdown: %w", err)
		}
	}
	return nil
}

// tieredKillCheck runs a tiered-store collector with an aggressive
// background compactor, SIGKILLs it right after a compaction pass ran
// (and possibly during the next one), restarts it on the same directory,
// and requires that no closed epoch was lost: the cold-tier swap is an
// atomic rename and every closed hot epoch was fsynced, so the recovered
// store must serve at least as many epochs as the pre-kill query saw.
func (s *soak) tieredKillCheck() error {
	s.logf("phase: tiered store killed during compaction")
	udpAddr, err := probeUDP()
	if err != nil {
		return err
	}
	httpAddr, err := probeTCP()
	if err != nil {
		return err
	}
	args := []string{"serve",
		"-listen", udpAddr,
		"-http", httpAddr,
		"-store", filepath.Join(s.dir, "tiered.d"),
		"-hotepochs", "2",
		"-compactevery", "1",
		"-fsync", "epoch",
		"-gap", s.gap.String(),
		"-for", "1h",
	}
	p, err := startProc("tiered", s.collectBin, args...)
	if err != nil {
		return err
	}
	s.procs = append(s.procs, p)
	if _, err := p.waitFor("serving on", 10*time.Second); err != nil {
		return err
	}
	feed, err := dialVantage(udpAddr)
	if err != nil {
		return err
	}
	defer feed.close()

	// Enough closed epochs that the background compactor has migrated at
	// least one batch into a cold segment while load keeps arriving.
	for e := 0; e < 6; e++ {
		if err := feed.sendEpoch(rampRecords(0)); err != nil {
			return err
		}
		time.Sleep(s.epoch)
	}
	if _, err := p.waitFor("store: compacted", 5*time.Second); err != nil {
		return fmt.Errorf("background compactor never ran: %w", err)
	}
	preKill, err := epochCountAt(httpAddr)
	if err != nil {
		return fmt.Errorf("tiered pre-kill epoch count: %w", err)
	}
	if preKill == 0 {
		return errors.New("tiered store served no epochs before the kill")
	}

	// One more batch lands and the kill fires inside the quiet gap: the
	// open epoch dies with the process while the compactor may be mid-
	// migration — exactly the window the atomic segment swap protects.
	if err := feed.sendEpoch(rampRecords(0)); err != nil {
		return err
	}
	time.Sleep(s.gap / 4)
	if err := p.kill9(); err != nil {
		return err
	}

	p2, err := startProc("tiered-restarted", s.collectBin, args...)
	if err != nil {
		return err
	}
	s.procs = append(s.procs, p2)
	if _, err := p2.waitFor("store: recovered", 10*time.Second); err != nil {
		return fmt.Errorf("restarted tiered collector reported no recovery: %w", err)
	}
	postKill, err := epochCountAt(httpAddr)
	if err != nil {
		return fmt.Errorf("tiered post-restart epoch count: %w", err)
	}
	if postKill < preKill {
		return fmt.Errorf("tiered store lost closed epochs across the kill: %d before, %d after", preKill, postKill)
	}
	if err := p2.sigterm(10 * time.Second); err != nil {
		return fmt.Errorf("tiered collector graceful shutdown: %w", err)
	}
	s.logf("tiered ok: %d epochs pre-kill, %d served after restart, compaction survived SIGKILL", preKill, postKill)
	return nil
}

// fullModeChecks runs the cross-vantage correlator scenario: a
// two-vantage flowqueryd with one vantage going dead mid-run must keep
// answering /netwide/alerts — silence at one vantage is data, not a
// deadlock.
func (s *soak) fullModeChecks() error {
	s.logf("phase: two-vantage correlator with a dying vantage")
	nfA, err := probeUDP()
	if err != nil {
		return err
	}
	nfB, err := probeUDP()
	if err != nil {
		return err
	}
	addr, err := probeTCP()
	if err != nil {
		return err
	}
	qd, err := startProc("queryd-corr", s.querydBin,
		"-listen", addr, "-netflow", nfA, "-netflow", nfB,
		"-gap", s.gap.String(), "-detect", "-changedelta", "500")
	if err != nil {
		return err
	}
	s.procs = append(s.procs, qd)
	if _, err := qd.waitFor("flowqueryd serving on", 10*time.Second); err != nil {
		return err
	}
	feedA, err := dialVantage(nfA)
	if err != nil {
		return err
	}
	feedB, err := dialVantage(nfB)
	if err != nil {
		return err
	}

	// Both vantages see a baseline epoch then a heavy change; then vantage
	// B dies and A keeps reporting alone.
	base := []flow.Record{{Key: flow.Key{SrcIP: 9, DstIP: 10, DstPort: 443, Proto: 6}, Count: 100}}
	spike := []flow.Record{{Key: flow.Key{SrcIP: 9, DstIP: 10, DstPort: 443, Proto: 6}, Count: 9100}}
	for _, recs := range [][]flow.Record{base, spike} {
		if err := feedA.sendEpoch(recs); err != nil {
			return err
		}
		if err := feedB.sendEpoch(recs); err != nil {
			return err
		}
		time.Sleep(s.epoch)
	}
	feedB.close() // vantage B goes dead
	for i := 0; i < 3; i++ {
		if err := feedA.sendEpoch(base); err != nil {
			return err
		}
		time.Sleep(s.epoch)
	}
	time.Sleep(s.gap + 300*time.Millisecond)

	// The correlator must answer, not hang on the dead vantage, and the
	// synchronized spike must have been promoted while B was alive.
	var nw query.NetwideAlertsResponse
	if err := getJSON("http://"+addr+"/v1/netwide/alerts", &nw); err != nil {
		return fmt.Errorf("/v1/netwide/alerts with a dead vantage: %w", err)
	}
	if nw.Matched == 0 {
		return errors.New("correlator promoted nothing despite a synchronized cross-vantage spike")
	}
	s.logf("correlator ok: %d netwide alerts, dead vantage did not wedge it", nw.Matched)
	return qd.sigterm(10 * time.Second)
}

// reap kills anything still running so a failed soak leaves no orphans.
func (s *soak) reap() {
	for _, p := range s.procs {
		p.reap()
	}
}

// ---- live event stream client ----

// sseWatch holds a /events subscription on one member across its
// kill/restart cycles, behaving like a real EventSource: on disconnect it
// reconnects with the last seen event id, and it accounts connections,
// epoch/alert frames, and sequence continuity (within one connection ids
// must be strictly increasing with no gap beyond the bus ring bound; a
// restarted daemon legitimately restarts its sequence on the next
// connection and replays what its ring retained).
type sseWatch struct {
	url    string
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	lastID string
	conns  int
	alerts int
	epochs int
	seqErr error
}

func watchEvents(httpAddr string) *sseWatch {
	ctx, cancel := context.WithCancel(context.Background())
	w := &sseWatch{
		url:    "http://" + httpAddr + "/v1/events?kind=alert,epoch",
		cancel: cancel,
		done:   make(chan struct{}),
	}
	go w.run(ctx)
	return w
}

func (w *sseWatch) run(ctx context.Context) {
	defer close(w.done)
	for {
		w.connect(ctx)
		select {
		case <-ctx.Done():
			return
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// connect holds one stream until it drops (daemon killed) or the watch
// stops.
func (w *sseWatch) connect(ctx context.Context) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.url, nil)
	if err != nil {
		return
	}
	w.mu.Lock()
	if w.lastID != "" {
		req.Header.Set("Last-Event-ID", w.lastID)
	}
	w.mu.Unlock()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	w.mu.Lock()
	w.conns++
	w.mu.Unlock()

	sc := bufio.NewScanner(resp.Body)
	var id, event string
	var prev uint64
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = line[4:]
		case strings.HasPrefix(line, "event: "):
			event = line[7:]
		case line == "":
			if id == "" {
				continue // comment frame (heartbeat / drop note)
			}
			seq, err := strconv.ParseUint(id, 10, 64)
			w.mu.Lock()
			if err == nil {
				if prev != 0 && (seq <= prev || seq-prev > events.DefaultRingCap) {
					w.seqErr = fmt.Errorf("sequence %d after %d on one connection", seq, prev)
				}
				prev = seq
				w.lastID = id
			}
			switch event {
			case "alert":
				w.alerts++
			case "epoch":
				w.epochs++
			}
			w.mu.Unlock()
			id, event = "", ""
		}
	}
}

// stop ends the watch and waits the reader out.
func (w *sseWatch) stop() {
	w.cancel()
	<-w.done
}

func (w *sseWatch) stats() (conns, epochs, alerts int, seqErr error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.conns, w.epochs, w.alerts, w.seqErr
}

// ---- child process management ----

// lockedBuf is a goroutine-safe capture of a child's combined output.
type lockedBuf struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// proc is one spawned child with captured output.
type proc struct {
	name string
	cmd  *exec.Cmd
	out  *lockedBuf
	done chan error
}

func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	out := &lockedBuf{}
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, out: out, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

func (p *proc) output() string { return p.out.String() }

// waitFor polls the child's output for substr, returning the full line
// containing it.
func (p *proc) waitFor(substr string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, line := range strings.Split(p.output(), "\n") {
			if strings.Contains(line, substr) {
				return line, nil
			}
		}
		select {
		case err := <-p.done:
			p.done <- err // leave it consumable for kill/sigterm
			return "", fmt.Errorf("%s exited (%v) before printing %q; output:\n%s",
				p.name, err, substr, p.output())
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not print %q within %v; output:\n%s",
				p.name, substr, timeout, p.output())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// kill9 SIGKILLs the child — no cleanup, no flush, the crash under test.
func (p *proc) kill9() error {
	if err := p.cmd.Process.Kill(); err != nil {
		return err
	}
	<-p.done
	return nil
}

// sigterm asks the child to shut down gracefully and requires a clean
// exit within the deadline.
func (p *proc) sigterm(timeout time.Duration) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		if err != nil {
			return fmt.Errorf("%s exited uncleanly after SIGTERM: %v; output:\n%s", p.name, err, p.output())
		}
		return nil
	case <-time.After(timeout):
		_ = p.cmd.Process.Kill()
		return fmt.Errorf("%s ignored SIGTERM for %v", p.name, timeout)
	}
}

// reap force-kills if still running; used on harness exit.
func (p *proc) reap() {
	select {
	case err := <-p.done:
		p.done <- err
	default:
		_ = p.cmd.Process.Kill()
	}
}

// ---- load generation ----

// vantage is one member's NetFlow feed.
type vantage struct {
	conn net.Conn
	exp  *netflow.Exporter
}

func dialVantage(addr string) (*vantage, error) {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return nil, err
	}
	v := &vantage{conn: conn}
	v.exp = netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		if err != nil {
			// A connected UDP socket can surface one stale ICMP
			// port-unreachable queued while the collector was down; the
			// retry targets the restarted listener.
			_, err = conn.Write(b)
		}
		return err
	})
	return v, nil
}

func (v *vantage) sendEpoch(recs []flow.Record) error {
	return v.exp.Export(recs, 700)
}

func (v *vantage) close() { v.conn.Close() }

// ---- plumbing ----

// probeUDP reserves an ephemeral loopback UDP address.
func probeUDP() (string, error) {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return "", err
	}
	addr := c.LocalAddr().String()
	c.Close()
	return addr, nil
}

// probeTCP reserves an ephemeral loopback TCP address.
func probeTCP() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func getJSON(url string, out any) error {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, b)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// metricValue scrapes a member's /metrics (Prometheus text) and returns
// the value of one exactly named sample line.
func (s *soak) metricValue(m *member, metric string) (float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + m.httpAddr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == metric {
			var v float64
			if _, err := fmt.Sscanf(fields[1], "%g", &v); err != nil {
				return 0, fmt.Errorf("metric %s: unparseable value %q", metric, fields[1])
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("metric %s absent from %s's exposition", metric, m.name)
}

// healthz fetches a member's structured health snapshot.
func (s *soak) healthz(m *member) (telemetry.Health, error) {
	var h telemetry.Health
	err := getJSON("http://"+m.httpAddr+"/healthz", &h)
	return h, err
}

// queryFlows asks a flowqueryd for all stored flows and returns the
// matched count.
func queryFlows(addr string) (int, error) {
	var resp query.FlowsResponse
	if err := getJSON("http://"+addr+"/v1/flows", &resp); err != nil {
		return 0, err
	}
	return resp.Matched, nil
}

// doneStats is the parsed final summary of a collector.
type doneStats struct {
	datagrams, records, epochs, lost, bad int64
}

// parseDone extracts the "done: ..." summary line from a collector's
// output.
func parseDone(out string) (doneStats, error) {
	for _, line := range strings.Split(out, "\n") {
		i := strings.Index(line, "done: ")
		if i < 0 {
			continue
		}
		var st doneStats
		if _, err := fmt.Sscanf(line[i:], "done: %d datagrams, %d records, %d epochs, %d lost, %d bad",
			&st.datagrams, &st.records, &st.epochs, &st.lost, &st.bad); err != nil {
			return doneStats{}, fmt.Errorf("unparseable summary %q: %w", line, err)
		}
		return st, nil
	}
	return doneStats{}, fmt.Errorf("no summary line in output:\n%s", out)
}
