// Command flowqueryd serves flow queries over HTTP/JSON: live top-k from
// an online tracker, historical records from mmap-backed record stores,
// and a network-wide merged view across stores and the live feeds.
//
//	flowqueryd -listen 127.0.0.1:8080 -store records.frec
//	flowqueryd -listen :8080 -store sw1.frec -store sw2.frec
//	flowqueryd -listen :8080 -store records.frec -netflow 127.0.0.1:2055
//	flowqueryd -listen :8080 -netflow 127.0.0.1:2055 -netflow 127.0.0.1:2056 -detect
//
// It serves the query API under /v1/ (endpoints, parameters and errors
// in API.md) beside /metrics, /healthz and, with -debug, /debug/pprof/.
// /v1/topk reads the first -netflow feed's live tracker, or without one
// the primary store's all-time summary; /v1/epochs and /v1/flows read the
// primary store; /v1/netwide/topk merges every store and live feed; the
// alert endpoints need -netflow -detect, and /v1/netwide/alerts two or
// more feeds.
//
// The primary store (first -store) is re-opened per request, so a store a
// collector is still appending to is always served current. A -store may
// be a flat .frec file or a tiered directory (hot mmap tier + compressed
// cold segments + rollups) written by flowcollect's tiered mode; with
// -compactevery, flowqueryd itself applies the hot-window and retention
// policy to the primary tiered store on a timer.
//
// -netflow is repeatable: each listener is one vantage point with its
// own live tracker, all merged into /netwide/topk. With -detect, every
// vantage additionally runs its own detection subsystem (heavy changers,
// slow-ramp forecasting, superspreaders, victim fan-in, anomaly scoring)
// on its collector's epoch goroutine, and the per-vantage change
// summaries stream into a cross-vantage correlator that promotes keys
// alerting at -quorum vantages (or whose merged delta crosses
// -netwidedelta) to netwide alerts — queries, detection and correlation
// all stay off the datagram path.
//
// The correlator aligns vantages by epoch index, and each vantage's
// epochs are quiet-gap delimited independently: exporters must rotate
// in lockstep (the epoch-aligned `flowcollect export -epochpkts` mode,
// or any exporter family sharing a rotation clock) for index N to mean
// the same window everywhere. A vantage that misses a whole epoch
// window shifts its subsequent indices; the per-vantage evidence on
// each netwide alert makes such skew visible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
	"repro/topk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowqueryd:", err)
		os.Exit(1)
	}
}

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flowqueryd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	var stores stringList
	fs.Var(&stores, "store", "record store: a flat .frec file or a tiered directory (repeatable; first is the primary)")
	hotEpochs := fs.Int("hotepochs", 64, "hot-window size the maintenance compactor enforces on the primary tiered store (with -compactevery)")
	retain := fs.Duration("retain", 0, "retention horizon the maintenance compactor applies: cold segments entirely older than this roll up to top-k summaries; 0 keeps everything (with -compactevery)")
	compactEvery := fs.Duration("compactevery", 0, "run compaction + retention on the primary tiered -store directory at this interval; 0 never. The directory must not be owned by a running collector")
	var nfs stringList
	fs.Var(&nfs, "netflow", "ingest NetFlow v5 on this UDP address into a live tracker (repeatable; each is one vantage)")
	gap := fs.Duration("gap", time.Second, "quiet gap closing a NetFlow epoch")
	topkCap := fs.Int("topk", 4096, "live tracker capacity in flows (per vantage)")
	det := fs.Bool("detect", false, "run detection on each live-ingested epoch (with -netflow)")
	fanout := fs.Int("fanout", 128, "superspreader distinct-destination threshold (with -detect)")
	fanin := fs.Int("fanin", 128, "victim fan-in distinct-source threshold (with -detect)")
	minDelta := fs.Uint64("changedelta", 1024, "heavy-change per-flow delta threshold (with -detect)")
	forecast := fs.Float64("forecast", 1024, "forecast CUSUM drift threshold in packets (with -detect)")
	quorum := fs.Int("quorum", 0, "vantages that must alert on a key to promote it netwide (0 = min(2, vantages), with -detect)")
	netwideDelta := fs.Uint64("netwidedelta", 0, "merged |delta| promoting a key netwide (0 = 4x changedelta, with -detect)")
	runFor := fs.Duration("for", 0, "serve for this long then exit (0 = forever)")
	debug := fs.Bool("debug", false, "also serve net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(stores) == 0 && len(nfs) == 0 {
		return errors.New("usage: flowqueryd [-listen addr] -store <file> [-store <file>...] [-netflow addr...]")
	}
	if *det && len(nfs) == 0 {
		return errors.New("-detect needs a live feed: pass -netflow too")
	}

	// Catch termination signals from the start so a SIGTERM during setup
	// still shuts the daemon down instead of killing it mid-listen.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	cfg := query.Config{}
	reg := telemetry.NewRegistry()
	start := time.Now()
	var vantageHealth []telemetry.VantageHealth

	// The live-ops layer: one event bus and epoch tracer shared by every
	// vantage (events carry their vantage label), served as /events SSE and
	// /trace/epochs alongside the query endpoints. The logger mirrors
	// operational lines onto the same bus.
	bus := events.NewBus(events.DefaultRingCap)
	tracer := events.NewTracer(events.DefaultTraceKeep)
	logger := slog.New(events.NewLogHandler(w, bus, ""))
	events.RegisterMetrics(reg, bus)
	cfg.Events = bus
	cfg.Trace = tracer
	cfg.Registry = reg

	// Historical side: the primary store is re-opened per request (it may
	// still be growing); every store — flat file or tiered directory —
	// contributes its all-time summed view to the network-wide merge.
	for i, path := range stores {
		src, err := recordstore.Open(path)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		static, err := query.SumStore(src)
		src.Close()
		if err != nil {
			return fmt.Errorf("summarize %s: %w", path, err)
		}
		cfg.Netwide = append(cfg.Netwide, query.NamedSource{
			Name: filepath.Base(path), Source: static,
		})
		if i == 0 {
			cfg.Store = query.FileStore(path)
			cfg.TopK = static // the live tracker below overrides this
		}
	}

	// Maintenance compaction: when flowqueryd owns a tiered store no
	// collector is appending to (the query-daemon-over-archive
	// deployment), it can apply the hot-window and retention policy
	// itself on a timer instead of leaving the store frozen as written.
	if *compactEvery > 0 {
		if len(stores) == 0 {
			return errors.New("-compactevery needs a primary -store directory")
		}
		st, err := os.Stat(stores[0])
		if err != nil {
			return err
		}
		if !st.IsDir() {
			return fmt.Errorf("-compactevery needs a tiered store directory; %s is a flat file", stores[0])
		}
		tw, _, err := recordstore.OpenTiered(stores[0], recordstore.TieredOptions{
			HotEpochs: *hotEpochs,
			Retain:    *retain,
		})
		if err != nil {
			return err
		}
		defer tw.Close()
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			t := time.NewTicker(*compactEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					stats, err := tw.Compact()
					switch {
					case err != nil:
						logger.Error("store: compaction failed", "kind", "degraded", "error", err.Error())
					case stats.Migrated > 0 || stats.RolledUp > 0:
						logger.Info("store: compacted", "kind", "compaction",
							"migrated", stats.Migrated, "rolled_up", stats.RolledUp,
							"stall", time.Duration(stats.StallNs).String())
					}
				}
			}
		}()
		logger.Info(fmt.Sprintf("compacting %s every %s", stores[0], *compactEvery),
			"hotepochs", *hotEpochs, "retain", (*retain).String())
	}

	// Live side: NetFlow listeners feeding per-vantage online trackers,
	// and optionally the detection subsystem — per-vantage detectors
	// whose change summaries stream into one cross-vantage correlator.
	// Everything runs on each collector's epoch goroutine, off the
	// datagram paths. The shared epoch counter versions the /netwide/topk
	// cache: responses stay memoized until the next epoch lands anywhere.
	var epochs atomic.Uint64
	var corr *detect.Correlator
	// Correlation needs at least two vantage points: with one, every
	// local heavy change would trivially satisfy a quorum of 1 and
	// /netwide/alerts would just duplicate /alerts.
	if *det && len(nfs) >= 2 {
		names := make([]string, len(nfs))
		copy(names, nfs)
		var err error
		corr, err = detect.NewCorrelator(detect.CorrelatorConfig{
			Vantages:        names,
			Quorum:          *quorum, // 0 defaults to min(2, vantages)
			VantageMinDelta: uint32(*minDelta),
			NetwideMinDelta: uint32(*netwideDelta),
		})
		if err != nil {
			return err
		}
		cfg.NetwideAlerts = corr
	}
	for i, nf := range nfs {
		tracker, err := topk.NewTracker(*topkCap)
		if err != nil {
			return err
		}
		var detector *detect.Detector
		if *det {
			dcfg := detect.Config{
				FanoutThreshold:   *fanout,
				FanInThreshold:    *fanin,
				ChangeMinDelta:    uint32(*minDelta),
				ForecastThreshold: *forecast,
			}
			if corr != nil {
				// Report sub-threshold deltas so the correlator can
				// promote changes that only cross the line once merged
				// (floored at 1: a 0 would mean "default back to
				// ChangeMinDelta").
				dcfg.SummaryMinDelta = uint32(*minDelta) / 4
				if dcfg.SummaryMinDelta == 0 {
					dcfg.SummaryMinDelta = 1
				}
			}
			detector, err = detect.NewDetector(dcfg)
			if err != nil {
				return err
			}
			if corr != nil {
				vantage := nf
				detector.SetSummarySink(func(s detect.ChangeSummary) {
					corr.ObserveSummary(vantage, s)
				})
			}
			if cfg.Alerts == nil {
				// /alerts serves the first vantage's detector; the
				// correlator's /netwide/alerts spans all of them.
				cfg.Alerts = detector
			}
		}
		name := "live"
		if len(nfs) > 1 {
			name = "live:" + nf
		}
		if detector != nil {
			detector.SetMetrics(detect.NewMetrics(reg, "vantage", nf))
			// Alerts become bus events on the evaluating (epoch) goroutine,
			// so a connected SSE client sees them within the epoch.
			vantage := name
			detector.SetSink(func(as []detect.Alert) {
				for _, a := range as {
					bus.Publish(events.AlertEvent(vantage, a))
				}
			})
		}
		// Detection epochs count per vantage (the correlator aligns
		// epochs across vantages by index); the shared counter only
		// versions the /netwide/topk cache.
		d := detector
		vantage := name
		var vantageEpochs int
		srv, err := collector.Start(collector.Config{
			Listen: nf, EpochGap: *gap,
			Metrics: collector.NewMetrics(reg, "vantage", nf),
		},
			func(ts time.Time, records []flow.Record) {
				sp := events.Begin(vantage, vantageEpochs, ts, len(records))
				sp.Time("tracker", func() { tracker.AddRecords(records) })
				if d != nil {
					var as []detect.Alert
					sp.Time("detect", func() { as = d.Observe(vantageEpochs, ts, records) })
					sp.AddAlerts(len(as))
				}
				sp.End(bus, tracer)
				vantageEpochs++
				epochs.Add(1)
			})
		if err != nil {
			return err
		}
		defer srv.Shutdown()
		srv.RegisterMetrics(reg, "vantage", nf)
		vantageHealth = append(vantageHealth, telemetry.VantageHealth{Name: name})
		if i == 0 {
			cfg.TopK = tracker
		}
		cfg.Netwide = append(cfg.Netwide, query.NamedSource{Name: name, Source: tracker})
		logger.Info(fmt.Sprintf("ingesting NetFlow on %s", srv.Addr()), "vantage", name)
	}
	cfg.NetwideVersion = epochs.Load

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", query.NewHandler(cfg))
	telemetry.Ops{
		Registry: reg,
		Health: func() telemetry.Health {
			return telemetry.Health{
				Status:        "ok",
				UptimeSeconds: telemetry.Uptime(start),
				Epochs:        epochs.Load(),
				Vantages:      vantageHealth,
			}
		},
		Debug: *debug,
	}.Register(mux)
	httpSrv := &http.Server{
		Handler:           telemetry.InstrumentMux(reg, mux),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	logger.Info(fmt.Sprintf("flowqueryd serving on http://%s", ln.Addr()))

	// Serve until the deadline (if any) or a termination signal, then shut
	// down gracefully: stop accepting, let in-flight queries finish under a
	// deadline, and fall back to a hard close if they will not. The
	// deferred collector Shutdowns then drain each vantage's in-flight
	// epoch into its tracker/detector before the process exits.
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()
	var deadline <-chan time.Time
	if *runFor > 0 {
		deadline = time.After(*runFor)
	}
	select {
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	case <-deadline:
	case sig := <-sigCh:
		logger.Info(fmt.Sprintf("received %v, shutting down", sig))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	err = httpSrv.Shutdown(ctx)
	cancel()
	if err != nil {
		httpSrv.Close()
	}
	<-done // Serve always returns after Shutdown/Close; drain it
	return nil
}
