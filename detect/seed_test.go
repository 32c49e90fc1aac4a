package detect

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/flow"
	"repro/recordstore"
)

// writeStore persists epochs (epoch e stamped ts(e)) to a fresh flat store
// and opens it for replay, the way a restarted collector finds its store.
func writeStore(t *testing.T, epochs [][]flow.Record) recordstore.EpochSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "history.frec")
	fw, _, err := recordstore.OpenFile(path, recordstore.SyncPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for e, recs := range epochs {
		if err := fw.WriteEpoch(ts(e), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := recordstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	return src
}

// seed replays up to n of src's newest epochs into d and fails the test
// unless exactly want replayed.
func seed(t *testing.T, d *Detector, src recordstore.EpochSource, n, want int) {
	t.Helper()
	if got, err := d.SeedFromHistory(src, n); err != nil || got != want {
		t.Fatalf("SeedFromHistory(%d) = %d, %v; want %d, nil", n, got, err, want)
	}
}

// rampingHistory is a store's worth of epochs whose one flow ramps slowly
// across epochs — the pattern the forecast stage needs history to catch.
func rampingHistory(epochs int) [][]flow.Record {
	var h [][]flow.Record
	for e := 0; e < epochs; e++ {
		h = append(h, []flow.Record{
			{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000002, DstPort: 443, Proto: 6},
				Count: uint32(1000 + 200*e)}, // the ramp
			{Key: flow.Key{SrcIP: 0x0A000003, DstIP: 0x0A000004, DstPort: 53, Proto: 17},
				Count: 500}, // steady background
		})
	}
	return h
}

func TestSeedFromHistory(t *testing.T) {
	src := writeStore(t, rampingHistory(12))
	d := mustDetector(t, Config{})
	var sunk int
	d.SetSink(func(as []Alert) { sunk += len(as) })

	seed(t, d, src, 8, 8)
	if got := d.Epochs(); got != 8 {
		t.Fatalf("Epochs() = %d after seeding, want 8 observations", got)
	}
	// The tail replays under its store indices 4..11, not 0..7.
	if got := d.LastFeatures().Epoch; got != 11 {
		t.Fatalf("last replayed epoch index = %d, want store index 11", got)
	}
	// Seeding warms state without emitting: no retained alerts, no
	// summaries, no sink deliveries.
	if as := d.AppendAlerts(nil); len(as) != 0 {
		t.Fatalf("seeding retained %d alerts: %v", len(as), as)
	}
	if ss := d.AppendSummaries(nil); len(ss) != 0 {
		t.Fatalf("seeding retained %d change summaries", len(ss))
	}
	if sunk != 0 {
		t.Fatalf("seeding delivered %d alerts to the sink", sunk)
	}
	// But the forecast state is warm: the ramping and steady keys are
	// tracked from history alone.
	if got := d.ForecastTracked(); got != 2 {
		t.Fatalf("ForecastTracked() = %d after seeding, want 2", got)
	}

	// A live epoch continuing the stored pattern, at the next store
	// index, evaluates against the seeded comparison base: the steady
	// flow must not raise a heavy-change alert, which it would against an
	// empty base.
	live := rampingHistory(13)[12]
	as := d.Observe(12, ts(12), live)
	for _, a := range as {
		if a.Kind == KindHeavyChange && a.Key.DstPort == 53 {
			t.Fatalf("steady flow alerted despite seeded base: %v", a)
		}
	}
	if sunk != len(as) {
		t.Fatalf("live sink saw %d alerts, Observe returned %d", sunk, len(as))
	}
}

func TestSeedFromHistoryClamps(t *testing.T) {
	src := writeStore(t, rampingHistory(3))
	d := mustDetector(t, Config{})
	seed(t, d, src, 100, 3)
	seed(t, d, src, 0, 0)
}

// Soak-pinned ramp parameters: cmd/flowsoak injects exactly this shape
// (stable warmup at rampBase, then +rampStep per epoch against
// rampThreshold) and relies on the timing this test proves. Change these
// together or the soak's detection assertions go stale.
const (
	rampBase      = 2000
	rampStep      = 300
	rampThreshold = 2200
	rampWarmup    = 10
	rampKillAfter = 4 // ramp epochs evaluated before the "crash"
	rampBudget    = 5 // epochs a restarted detector gets to re-alert
)

var rampKey = flow.Key{SrcIP: 0xc0a80001, DstIP: 0xc0a80002, SrcPort: 50000, DstPort: 443, Proto: 6}

func rampConfig() Config {
	return Config{
		Stages:            StageForecast,
		ForecastThreshold: rampThreshold,
		ForecastMinCount:  128,
		ForecastCapacity:  256,
	}
}

// rampEpoch is the epoch carrying the subject flow at the given ramp
// epoch (0 = still flat, 1.. = ramping).
func rampEpoch(r int) []flow.Record {
	count := uint32(rampBase)
	if r > 0 {
		count += uint32(rampStep * r)
	}
	return []flow.Record{{Key: rampKey, Count: count}}
}

// TestReplayRampRestore is the detection-continuity scenario the chaos
// soak asserts end to end: a slow ramp is in progress when the collector
// dies. The detector that replays the stored tail at the default depth
// rebuilds the accumulated CUSUM drift and re-alerts within the budget; a
// cold-started control sees the elevated traffic as the new normal and
// stays quiet — the blind spot warm restart exists to close.
func TestReplayRampRestore(t *testing.T) {
	subject := mustDetector(t, rampConfig())
	var stored [][]flow.Record
	live := func(d *Detector, epoch, r int) []Alert { return d.Observe(epoch, ts(epoch), rampEpoch(r)) }
	for e := 0; e < rampWarmup+rampKillAfter; e++ {
		r := max(0, e-rampWarmup+1)
		if alerts := live(subject, e, r); len(alerts) != 0 {
			t.Fatalf("epoch %d (ramp epoch %d) alerted before the kill: %v", e, r, alerts)
		}
		stored = append(stored, rampEpoch(r))
	}

	// "Crash": drop the detector; the restart replays the store's tail.
	restored := mustDetector(t, rampConfig())
	seed(t, restored, writeStore(t, stored), DefaultSeedEpochs, min(DefaultSeedEpochs, len(stored)))
	control := mustDetector(t, rampConfig())

	epoch := len(stored)
	restoredAt, controlAlerted := 0, false
	for i := 1; i <= rampBudget; i++ {
		r := rampKillAfter + i
		if alerts := live(restored, epoch, r); len(alerts) > 0 && restoredAt == 0 {
			if alerts[0].Kind != KindForecast {
				t.Fatalf("restored detector raised %v, want a forecast alert", alerts[0])
			}
			restoredAt = i
		}
		if alerts := live(control, epoch, r); len(alerts) > 0 {
			controlAlerted = true
		}
		epoch++
	}
	if restoredAt == 0 {
		t.Fatalf("replayed detector did not re-alert on the in-progress ramp within %d epochs", rampBudget)
	}
	if controlAlerted {
		t.Fatalf("cold-start control alerted within %d epochs: the scenario no longer isolates replay value", rampBudget)
	}
	t.Logf("replayed detector re-alerted %d epochs after restart; control stayed quiet for %d", restoredAt, rampBudget)

	// The margin matters: a control left running PAST the budget must
	// eventually alert too (the ramp is real), proving the quiet window
	// above measures state loss, not an undetectable ramp.
	for i := rampBudget + 1; i <= rampBudget+8 && !controlAlerted; i++ {
		controlAlerted = len(live(control, epoch, rampKillAfter+i)) > 0
		epoch++
	}
	if !controlAlerted {
		t.Fatal("control never alerted even well past the budget: ramp parameters too weak to detect at all")
	}
}

// mixedConfig keeps every stage on with thresholds low enough that
// mixedEpoch exercises them all.
func mixedConfig() Config {
	return Config{
		ChangeMinDelta:    200,
		ChangeTopK:        8,
		FanoutThreshold:   16,
		FanInThreshold:    16,
		ForecastCapacity:  256,
		ForecastMinCount:  64,
		ForecastThreshold: 400,
		BaselineWindow:    8,
		BaselineWarmup:    4,
	}
}

// mixedEpoch builds a deterministic epoch that drives every stage: steady
// flows, a wobbling flow, a burst key on a cycle (heavy change), a
// sawtooth ramp (forecast), a periodic scanner (superspreader), a periodic
// flood (victim fan-in) and a rare volume spike (anomaly).
func mixedEpoch(e int) []flow.Record {
	k := func(src, dst uint32, sport, dport uint16) flow.Key {
		return flow.Key{SrcIP: src, DstIP: dst, SrcPort: sport, DstPort: dport, Proto: 6}
	}
	recs := []flow.Record{
		{Key: k(0x0a000001, 0x0a000002, 40000, 443), Count: 900},
		{Key: k(0x0a000003, 0x0a000004, 40001, 53), Count: 300},
		{Key: k(0x0a000005, 0x0a000006, 40002, 80), Count: uint32(400 + 150*(e%3))},
		{Key: k(0x0a000009, 0x0a00000a, 40004, 22), Count: uint32(500 + 120*(e%15))},
	}
	if e%4 == 2 {
		recs = append(recs, flow.Record{Key: k(0x0a000007, 0x0a000008, 40003, 8080), Count: 1200})
	}
	for i := uint32(0); i < 24; i++ {
		if e%5 == 3 {
			recs = append(recs, flow.Record{Key: k(0x0b000001, 0x0b100000+i, 41000, 445), Count: 70})
		}
		if e%7 == 4 {
			recs = append(recs, flow.Record{Key: k(0x0c100000+i, 0x0c000001, 42000, 80), Count: 70})
		}
	}
	if e%13 == 11 {
		for i := range recs {
			recs[i].Count *= 50
		}
	}
	return recs
}

// TestReplayFullHistoryEquivalence: a detector that replays the whole
// stored history raises exactly the alerts of one that never stopped, on
// every epoch after the restart, wherever the restart falls.
func TestReplayFullHistoryEquivalence(t *testing.T) {
	assertReplayEquivalent(t, mixedConfig())
}

// TestReplayRetunedConfig: replay reads records, not saved state, so a
// detector whose config changed across the restart comes back as warm and
// as exact as one whose config did not.
func TestReplayRetunedConfig(t *testing.T) {
	retuned := mixedConfig()
	retuned.ForecastThreshold = 999
	retuned.BaselineWindow = 12
	assertReplayEquivalent(t, retuned)
}

// assertReplayEquivalent runs mixedEpoch history under cfg and checks
// that full-history replay at three cut points matches the uninterrupted
// detector on every later epoch.
func assertReplayEquivalent(t *testing.T, cfg Config) {
	t.Helper()
	const total = 60
	history := make([][]flow.Record, total)
	for e := range history {
		history[e] = mixedEpoch(e)
	}
	ref := mustDetector(t, cfg)
	want := make([][]Alert, total)
	kinds := map[Kind]int{}
	for e, recs := range history {
		want[e] = append([]Alert(nil), ref.Observe(e, ts(e), recs)...)
		if e < 5 {
			continue
		}
		for _, a := range want[e] {
			kinds[a.Kind]++
		}
	}
	for _, k := range []Kind{KindHeavyChange, KindSuperspreader, KindAnomaly, KindForecast, KindVictimFanIn} {
		if kinds[k] == 0 {
			t.Fatalf("workload raised no %v alert after epoch 5: the comparison does not cover that stage (%v)", k, kinds)
		}
	}

	for _, cut := range []int{5, 17, 40} {
		d := mustDetector(t, cfg)
		seed(t, d, writeStore(t, history[:cut]), cut, cut)
		for e := cut; e < total; e++ {
			if got := d.Observe(e, ts(e), history[e]); !slices.Equal(got, want[e]) {
				t.Fatalf("cut %d, epoch %d diverged:\nuninterrupted %v\nreplayed      %v", cut, e, want[e], got)
			}
		}
	}
}

// TestReplayForecastAges: replayed forecast entries keep their TTL
// standing under store indices — a key absent since the replayed tail's
// first epoch is swept on schedule, not early.
func TestReplayForecastAges(t *testing.T) {
	cfg := Config{Stages: StageForecast, ForecastTTL: 3, ForecastMinCount: 64, ForecastCapacity: 64}
	stale := flow.Key{SrcIP: 1, DstIP: 2, Proto: 6}
	fresh := flow.Key{SrcIP: 3, DstIP: 4, Proto: 6}
	filler := []flow.Record{{Key: flow.Key{SrcIP: 5, DstIP: 6, Proto: 6}, Count: 10}} // under ForecastMinCount
	onlyFresh := []flow.Record{{Key: fresh, Count: 500}}
	// Epochs 0-2 track nothing; 3 has both keys; 4-5 only the fresh one.
	history := [][]flow.Record{filler, filler, filler,
		{{Key: stale, Count: 500}, {Key: fresh, Count: 500}}, onlyFresh, onlyFresh}

	d := mustDetector(t, cfg)
	seed(t, d, writeStore(t, history), 3, 3)
	if n := d.ForecastTracked(); n != 2 {
		t.Fatalf("tracking %d keys after replay, want 2", n)
	}
	// At epoch 6 the stale key was last seen 3 epochs ago (= TTL): kept.
	d.Observe(6, ts(6), onlyFresh)
	if n := d.ForecastTracked(); n != 2 {
		t.Fatalf("tracking %d keys at epoch 6, want 2 (stale key swept early)", n)
	}
	// At epoch 7 it is 4 epochs in the past (> TTL 3): swept.
	d.Observe(7, ts(7), onlyFresh)
	if n := d.ForecastTracked(); n != 1 {
		t.Fatalf("tracking %d keys at epoch 7, want 1 (stale key swept)", n)
	}
}

// TestReplayBaselineContinuity: a replayed detector's anomaly baselines
// are warm — an outlier epoch right after restart scores against the
// stored history instead of restarting the warmup.
func TestReplayBaselineContinuity(t *testing.T) {
	cfg := Config{Stages: StageAnomaly, BaselineWindow: 8, BaselineWarmup: 4, AnomalyScore: 8}
	steady := make([]flow.Record, 20)
	for i := range steady {
		steady[i] = flow.Record{
			Key:   flow.Key{SrcIP: uint32(i + 1), DstIP: 0x0a000001, SrcPort: uint16(1000 + i), DstPort: 443, Proto: 6},
			Count: uint32(100 + i%3),
		}
	}
	history := make([][]flow.Record, 10)
	for e := range history {
		history[e] = steady
	}
	d := mustDetector(t, cfg)
	seed(t, d, writeStore(t, history), DefaultSeedEpochs, 10)

	// 100x the packet volume right after restart.
	burst := append([]flow.Record(nil), steady...)
	for i := range burst {
		burst[i].Count *= 100
	}
	alerts := d.Observe(10, ts(10), burst)
	found := false
	for _, a := range alerts {
		if a.Kind == KindAnomaly && a.Metric == "packets" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replayed baselines missed a 100x packet burst (alerts: %v): warmup state was lost", alerts)
	}

	// The same burst against a cold detector is invisible: still warming up.
	if alerts := mustDetector(t, cfg).Observe(10, ts(10), burst); len(alerts) != 0 {
		t.Fatalf("cold detector alerted during warmup: %v", alerts)
	}
}

// TestReplayPrevEpochRestored: heavy-change detection right after a
// restart diffs against the last stored epoch, not against emptiness —
// without it every steady flow would look newborn and the first live
// epoch would be an alert storm.
func TestReplayPrevEpochRestored(t *testing.T) {
	cfg := Config{Stages: StageChange, ChangeMinDelta: 200, ChangeTopK: 8}
	steady := []flow.Record{
		{Key: flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 443, Proto: 6}, Count: 5000},
		{Key: flow.Key{SrcIP: 3, DstIP: 4, SrcPort: 11, DstPort: 80, Proto: 6}, Count: 7000},
	}
	d := mustDetector(t, cfg)
	seed(t, d, writeStore(t, [][]flow.Record{steady, steady, steady}), DefaultSeedEpochs, 3)
	if alerts := d.Observe(3, ts(3), steady); len(alerts) != 0 {
		t.Fatalf("steady traffic alerted right after restart: %v (prev epoch lost)", alerts)
	}
	// A real change still fires, named by its store index.
	changed := []flow.Record{steady[0], {Key: steady[1].Key, Count: 17000}}
	alerts := d.Observe(4, ts(4), changed)
	if len(alerts) != 1 || alerts[0].Kind != KindHeavyChange || alerts[0].Epoch != 4 {
		t.Fatalf("post-restart heavy change: got %v, want one heavy-change alert at epoch 4", alerts)
	}
	if alerts[0].Baseline != 7000 {
		t.Fatalf("post-restart delta baseline %v, want the replayed prev count 7000", alerts[0].Baseline)
	}
}
