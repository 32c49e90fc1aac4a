// Command flowcollect runs the two halves of a flow-record collection
// pipeline.
//
// Export mode reads packets (from a pcap file or a generated trace), feeds
// them through a measurement algorithm, and exports the resulting flow
// records as NetFlow v5 over UDP:
//
//	flowcollect export -algo HashFlow -mem 1048576 -pcap trace.pcap -to 127.0.0.1:2055
//	flowcollect export -algo HashFlow -profile Campus -flows 20000 -to 127.0.0.1:2055
//
// Collect mode listens for NetFlow v5 datagrams and prints a summary after
// the exporter goes quiet:
//
//	flowcollect collect -listen 127.0.0.1:2055 -idle 3s
//
// Serve mode runs a persistent collector that writes each quiet-gap
// delimited epoch to a record store file (query it with flowquery). With
// -http it also serves the live query API under /v1/ (see API.md):
// /v1/topk straight from an online tracker fed per epoch, /v1/epochs and
// /v1/flows from the growing store file. With -detect each epoch
// additionally runs through the detection subsystem (heavy changers,
// slow-ramp forecasting, superspreaders, victim fan-in, anomaly
// baselines) — alerts are served on /v1/alerts + /v1/changes, printed to
// stdout with -alerts, and
// POSTed as JSON to a webhook with -webhook. The -http listener also
// carries the ops surface: /metrics (Prometheus text, or ?format=json),
// /healthz (structured status including the store-recovery outcome), and
// with -debug the /debug/pprof/ profiling endpoints:
//
//	flowcollect serve -listen 127.0.0.1:2055 -store records.frec -for 1m
//	flowcollect serve -listen 127.0.0.1:2055 -store records.frec -http 127.0.0.1:8080
//	flowcollect serve -listen 127.0.0.1:2055 -store records.frec -detect -alerts \
//	    -webhook http://127.0.0.1:9000/hook
//
// With any of -hotepochs / -compactevery / -retain (or a directory store
// path), serve mode writes a tiered store instead of a flat file: the
// newest epochs stay in the mmap hot tier, a background compactor
// migrates older ones into delta-compressed cold segments, and -retain
// downsamples expired segments into exact top-k rollups.
//
// A restart on an existing store is a warm restart: epochs keep their
// store index (the sink's counter starts at the stored epoch count, so an
// alert's epoch is the one /v1/flows?epoch= serves), and with -detect the
// newest -seedhistory stored epochs (default 16, 0 starts cold) replay
// through the detector before live traffic, so forecasting, anomaly
// baselines and the heavy-change base resume where the store left off:
//
//	flowcollect serve -listen 127.0.0.1:2055 -store store.d -hotepochs 64 \
//	    -compactevery 64 -retain 720h -detect -seedhistory 256
//
// Export mode with -epochpkts rotates epochs while reading: a
// double-buffered adaptive manager swaps recorders at each epoch boundary
// and the background drain worker exports the completed epoch over UDP,
// so the packet path never extracts or sends. Adding -detect attaches
// the detection subsystem to the same drain (adaptive.AttachDetector):
// every completed epoch is scored for heavy changes, forecast breaks,
// superspreaders, fan-in victims and anomalies on the background worker,
// and alerts print to stdout:
//
//	flowcollect export -profile Campus -flows 20000 -epochpkts 100000 -to 127.0.0.1:2055
//	flowcollect export -profile Campus -flows 20000 -epochpkts 100000 -detect -to 127.0.0.1:2055
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/flowmon"
	"repro/netflow"
	"repro/pcapio"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
	"repro/topk"
	"repro/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowcollect:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: flowcollect <export|collect> [flags]")
	}
	switch args[0] {
	case "export":
		return runExport(args[1:], w)
	case "collect":
		return runCollect(args[1:], w)
	case "serve":
		return runServe(args[1:], w)
	default:
		return fmt.Errorf("unknown mode %q", args[0])
	}
}

// syncWriter serializes writes to the shared output: serve mode prints
// from both the main goroutine and the collector's epoch goroutine (the
// -alerts sink), and fmt emits each print as a single Write.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// storeHandle is the writer surface serve mode needs from either store
// shape: a flat append-only file (recordstore.FileWriter) or a tiered
// directory with compaction and retention (recordstore.Tiered).
type storeHandle interface {
	recordstore.EpochWriter
	Sync() error
	Close() error
	Fsyncs() uint64
	LastFsyncNs() int64
	SetMetrics(*recordstore.Metrics)
}

func runServe(args []string, w io.Writer) error {
	w = &syncWriter{w: w}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:2055", "UDP listen address")
	readers := fs.Int("readers", 1, "reader goroutines; >1 needs -reuseport on a supporting platform")
	reuseport := fs.Bool("reuseport", false, "bind one SO_REUSEPORT socket per reader (kernel fans exporters out by 4-tuple)")
	storePath := fs.String("store", "records.frec", "record store output: a flat .frec file, or a tiered directory when any tiered flag is set or the path is a directory")
	hotEpochs := fs.Int("hotepochs", 64, "epochs kept in the mmap hot tier before compaction migrates them into compressed cold segments (tiered store)")
	compactEvery := fs.Int("compactevery", 0, "compact in the background once the hot tier exceeds -hotepochs by this many epochs; 0 compacts only at shutdown (tiered store)")
	retain := fs.Duration("retain", 0, "downsample cold segments entirely older than this (measured against the newest epoch) into exact top-k rollups; 0 keeps everything lossless (tiered store)")
	seedHist := fs.Int("seedhistory", detect.DefaultSeedEpochs, "replay this many of the newest stored epochs through the detector at boot so detection restarts warm; 0 starts cold (with -detect)")
	gap := fs.Duration("gap", time.Second, "quiet gap that closes an epoch")
	runFor := fs.Duration("for", 30*time.Second, "how long to serve before shutting down")
	httpAddr := fs.String("http", "", "also serve the live query API on this address")
	topkCap := fs.Int("topk", 4096, "live top-k tracker capacity (with -http)")
	det := fs.Bool("detect", false, "run detection (heavy change, forecast, superspreader, victim fan-in, anomaly) on every epoch")
	fanout := fs.Int("fanout", 128, "superspreader distinct-destination threshold (with -detect)")
	fanin := fs.Int("fanin", 128, "victim fan-in distinct-source threshold (with -detect)")
	minDelta := fs.Uint64("changedelta", 1024, "heavy-change per-flow delta threshold (with -detect)")
	forecast := fs.Float64("forecast", 1024, "forecast CUSUM drift threshold in packets (with -detect)")
	alerts := fs.Bool("alerts", false, "print alerts to stdout (with -detect)")
	webhook := fs.String("webhook", "", "POST each epoch's alerts as JSON to this URL (with -detect)")
	fsyncPol := fs.String("fsync", "off", "store durability policy: off, epoch, or a sync interval like 2s")
	debug := fs.Bool("debug", false, "also serve net/http/pprof under /debug/pprof/ (with -http)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*alerts || *webhook != "") && !*det {
		return errors.New("-alerts/-webhook need -detect")
	}
	if *seedHist < 0 {
		return errors.New("-seedhistory must not be negative")
	}
	pol, err := recordstore.ParseSyncPolicy(*fsyncPol)
	if err != nil {
		return err
	}
	// Tiered mode: any tiered flag opts in, and an existing directory at
	// the store path is unambiguous on its own.
	tiered := false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "hotepochs", "compactevery", "retain":
			tiered = true
		}
	})
	if st, err := os.Stat(*storePath); err == nil && st.IsDir() {
		tiered = true
	}
	// Catch termination signals from the start: a SIGTERM during setup
	// still lands in the channel and shuts the serve loop down promptly.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// The process-wide instrument registry behind /metrics, plus the
	// last-error snapshot /healthz reports. Both exist even without
	// -http: the instruments are cheap and the wiring stays uniform.
	reg := telemetry.NewRegistry()
	start := time.Now()
	var lastErr atomic.Pointer[string]
	setLastErr := func(err error) {
		msg := err.Error()
		lastErr.Store(&msg)
	}

	// The pipeline event layer: every operational log line, epoch span,
	// alert and degradation lands on one bus (served as SSE on /events),
	// and the tracer keeps the last epochs' stage timelines for
	// /trace/epochs. The logger mirrors each line onto the bus, so stdout,
	// the stream and the traces agree.
	bus := events.NewBus(events.DefaultRingCap)
	tracer := events.NewTracer(events.DefaultTraceKeep)
	logger := slog.New(events.NewLogHandler(w, bus, "live"))
	events.RegisterMetrics(reg, bus)

	// Reopen the store for append, truncating the torn frame a killed
	// predecessor may have left; a fresh path just creates the file (or
	// tiered directory). The tiered store compacts hot epochs into
	// compressed cold segments in the background and applies the -retain
	// rollup policy; compaction outcomes land on the event bus.
	var (
		sh    storeHandle
		tw    *recordstore.Tiered
		recov recordstore.Recovery
	)
	if tiered {
		tw, recov, err = recordstore.OpenTiered(*storePath, recordstore.TieredOptions{
			HotEpochs:    *hotEpochs,
			CompactEvery: *compactEvery,
			Retain:       *retain,
			Sync:         pol,
			OnCompact: func(cs recordstore.CompactStats, err error) {
				// Compaction goroutine; the logger and lastErr are safe.
				if err != nil {
					setLastErr(fmt.Errorf("compaction: %w", err))
					logger.Error("store: compaction failed", "kind", "degraded", "error", err.Error())
					return
				}
				if cs.Migrated == 0 && cs.RolledUp == 0 {
					return
				}
				logger.Info("store: compacted", "kind", "compaction",
					"migrated", cs.Migrated, "raw_bytes", cs.RawBytes,
					"segment_bytes", cs.SegmentBytes, "rolled_up", cs.RolledUp,
					"stall", time.Duration(cs.StallNs).String())
			},
		})
		sh = tw
	} else {
		var fw *recordstore.FileWriter
		fw, recov, err = recordstore.OpenFile(*storePath, pol)
		sh = fw
	}
	if err != nil {
		return err
	}
	defer sh.Close()
	// The recovery outcome feeds /healthz so tooling can assert it
	// without scraping the startup log line below.
	storeHealth := &telemetry.StoreHealth{
		Path: *storePath, State: "created",
		EpochsRecovered: recov.Epochs, TornBytes: recov.TornBytes,
	}
	if !recov.Created {
		storeHealth.State = "recovered"
	}
	if !recov.Created || recov.TornBytes > 0 {
		logger.Info("store: recovered "+*storePath, "kind", "recovery",
			"epochs_intact", recov.Epochs, "torn_bytes", recov.TornBytes)
	}
	sh.SetMetrics(recordstore.NewMetrics(reg))
	store := collector.NewEpochStore(sh)

	// Detection runs on the collector's epoch goroutine — the serve-mode
	// analogue of the export drain worker — with alerts fanned out to the
	// query ring, stdout, and the async webhook sink.
	var (
		detector *detect.Detector
		hook     *webhookSink
	)
	if *det {
		detector, err = detect.NewDetector(detect.Config{
			FanoutThreshold:   *fanout,
			FanInThreshold:    *fanin,
			ChangeMinDelta:    uint32(*minDelta),
			ForecastThreshold: *forecast,
		})
		if err != nil {
			return err
		}
		detector.SetMetrics(detect.NewMetrics(reg))
		if *webhook != "" {
			hook = newWebhookSink(*webhook)
			hook.instrument(reg)
			hook.startLog(logger, 10*time.Second)
			defer hook.close(w)
		}
		printAlerts := *alerts
		detector.SetSink(func(as []detect.Alert) {
			// Runs on the collector's epoch goroutine inside Observe —
			// publishing here keeps alert events off the datagram path.
			for _, a := range as {
				bus.Publish(events.AlertEvent("live", a))
			}
			if printAlerts {
				for _, a := range as {
					fmt.Fprintln(w, a)
				}
			}
			if hook != nil {
				hook.deliver(as)
			}
		})
	}

	// Warm restart. Epochs keep their store index across restarts: the
	// sink's counter starts at the reopened store's epoch count, read
	// through the same source /flows serves (recov.Epochs counts only a
	// tiered store's hot file). The detector replays the stored tail
	// under those indices (alerts suppressed — they already fired when
	// the epochs were live), so live evaluation continues where the
	// history ends.
	var epochs atomic.Uint64
	if !recov.Created {
		history, err := recordstore.Open(*storePath)
		if err != nil {
			return fmt.Errorf("reopen store for reading: %w", err)
		}
		epochs.Store(uint64(history.Epochs()))
		if detector != nil {
			began := time.Now()
			n, err := detector.SeedFromHistory(history, *seedHist)
			if err != nil {
				logger.Warn("detect: history seed failed", "kind", "seed",
					"epochs", n, "error", err.Error())
			} else if n > 0 {
				logger.Info("detect: seeded baselines from history", "kind", "seed",
					"epochs", n, "forecast_keys", detector.ForecastTracked(),
					"took", time.Since(began).String())
			}
		}
		history.Close()
	}

	// The composed epoch sink: persist, then (with -http) feed the live
	// top-k tracker and flush so the per-request mmap sees the epoch
	// immediately, then (with -detect) evaluate detection — all on the
	// collector's epoch goroutine, never the datagram path. The epoch
	// counter versions the /netwide/topk cache.
	var (
		tracker *topk.Tracker
		httpSrv *http.Server
		httpLn  net.Listener
	)
	if *httpAddr != "" {
		if tracker, err = topk.NewTracker(*topkCap); err != nil {
			return err
		}
	}
	var storeDegraded bool // epoch goroutine only; degraded event fires once
	sink := func(ts time.Time, records []flow.Record) {
		ep := int(epochs.Load())
		sp := events.Begin("live", ep, ts, len(records))
		if tracker != nil {
			sp.Time("tracker", func() { tracker.AddRecords(records) })
		}
		preFsyncs := sh.Fsyncs()
		sp.Time("store_write", func() { store.Sink(ts, records) })
		if tracker != nil {
			// Sticky; surfaced via store.Err at exit and below as an event.
			sp.Time("store_flush", func() { _ = store.Flush() })
		}
		// fsync happens inside the write/flush stages when the durability
		// policy fires; report it as its own timeline entry too.
		if sh.Fsyncs() > preFsyncs {
			sp.StageNs("fsync", sh.LastFsyncNs())
		}
		if err := store.Err(); err != nil && !storeDegraded {
			storeDegraded = true
			setLastErr(fmt.Errorf("store write (%d later epochs dropped): %w", store.Dropped(), err))
			logger.Error("store: write failed, later epochs dropped",
				"kind", "degraded", "epoch", ep, "error", err.Error())
		}
		if detector != nil {
			var as []detect.Alert
			sp.Time("detect", func() { as = detector.Observe(ep, ts, records) })
			sp.AddAlerts(len(as))
		}
		sp.End(bus, tracer)
		epochs.Add(1)
	}
	health := serveHealth(start, &epochs, store, &lastErr, setLastErr, storeHealth)
	if *httpAddr != "" {
		cfg := query.Config{
			TopK:           tracker,
			Store:          query.FileStore(*storePath),
			Netwide:        []query.NamedSource{{Name: "live", Source: tracker}},
			NetwideVersion: epochs.Load,
			Events:         bus,
			Trace:          tracer,
			Registry:       reg,
		}
		if detector != nil {
			cfg.Alerts = detector
		}
		httpLn, err = net.Listen("tcp", *httpAddr)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/", query.NewHandler(cfg))
		telemetry.Ops{Registry: reg, Health: health, Debug: *debug}.Register(mux)
		httpSrv = &http.Server{
			Handler:           telemetry.InstrumentMux(reg, mux),
			ReadHeaderTimeout: 5 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
		}
		go func() { _ = httpSrv.Serve(httpLn) }()
		logger.Info(fmt.Sprintf("query API on http://%s", httpLn.Addr()))
	}

	srv, err := collector.Start(collector.Config{
		Listen: *listen, EpochGap: *gap,
		Readers: *readers, ReusePort: *reuseport,
		Metrics: collector.NewMetrics(reg),
	}, sink)
	if err != nil {
		if httpSrv != nil {
			httpSrv.Close()
		}
		return err
	}
	srv.RegisterMetrics(reg)
	logger.Info(fmt.Sprintf("serving on %s", srv.Addr()), "for", (*runFor).String(),
		"readers", srv.Readers(), "sockets", srv.Sockets(),
		"reads", srv.BatchMode(), "store", *storePath)

	// Run until the deadline or a termination signal, then shut down in
	// dependency order: stop ingest and drain the in-flight epoch through
	// the sink (collector.Shutdown is synchronous), make the store durable
	// — the next boot's detector replays from it — and only then stop
	// answering queries.
	select {
	case <-time.After(*runFor):
	case sig := <-sigCh:
		logger.Info(fmt.Sprintf("received %v, shutting down", sig))
	}
	srv.Shutdown()
	// Err before Flush: Flush also returns the sticky write error, which
	// would short-circuit the dropped-epoch diagnostic.
	if err := store.Err(); err != nil {
		return fmt.Errorf("store write failed (%d later epochs dropped): %w", store.Dropped(), err)
	}
	if tw != nil {
		// Final synchronous compaction pass: with -compactevery 0 this is
		// the only one, and either way the store lands compacted and
		// retention-trimmed before the process exits.
		if _, err := tw.Compact(); err != nil {
			return fmt.Errorf("final compaction: %w", err)
		}
	}
	if err := sh.Sync(); err != nil {
		return err
	}
	if httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := httpSrv.Shutdown(ctx)
		cancel()
		if err != nil {
			httpSrv.Close()
		}
	}
	st := srv.Stats()
	if _, err = fmt.Fprintf(w, "done: %d datagrams, %d records, %d epochs, %d lost, %d bad\n",
		st.Datagrams, st.Records, st.Epochs, st.Lost, st.BadData); err != nil {
		return err
	}
	if detector != nil {
		if _, err = fmt.Fprintf(w, "detection: %d epochs evaluated, %d alerts retained\n",
			detector.Epochs(), len(detector.AppendAlerts(nil))); err != nil {
			return err
		}
	}
	return nil
}

// serveHealth builds the /healthz snapshot closure: liveness plus the
// store recovery facts, degraded when any component reported
// an error. Factored out of runServe so the healthy→degraded transition
// is testable without a full serve run.
func serveHealth(start time.Time, epochs *atomic.Uint64, store *collector.EpochStore,
	lastErr *atomic.Pointer[string], setLastErr func(error),
	storeHealth *telemetry.StoreHealth) func() telemetry.Health {
	return func() telemetry.Health {
		h := telemetry.Health{
			Status:        "ok",
			UptimeSeconds: telemetry.Uptime(start),
			Epochs:        epochs.Load(),
			Store:         storeHealth,
		}
		if err := store.Err(); err != nil {
			setLastErr(fmt.Errorf("store write (%d later epochs dropped): %w", store.Dropped(), err))
		}
		if p := lastErr.Load(); p != nil {
			h.Status = "degraded"
			h.LastError = *p
		}
		return h
	}
}

// webhookAlert is the JSON shape of one alert delivered to the -webhook
// endpoint (the /alerts wire format rendered without the query layer).
type webhookAlert struct {
	Kind     string  `json:"kind"`
	Severity string  `json:"severity"`
	Epoch    int     `json:"epoch"`
	Time     string  `json:"time"`
	Flow     string  `json:"flow,omitempty"`
	Src      string  `json:"src,omitempty"`
	Dst      string  `json:"dst,omitempty"`
	Metric   string  `json:"metric,omitempty"`
	Value    float64 `json:"value"`
	Baseline float64 `json:"baseline"`
	Score    float64 `json:"score"`
}

// webhookSink POSTs alert batches to a URL from a single background
// goroutine. The epoch sink only marshals and enqueues; a slow or dead
// endpoint backpressures into dropped deliveries (counted, reported at
// shutdown), never into the epoch path. Each dequeued payload gets a
// bounded retry budget with exponential backoff and jitter — transport
// errors and non-2xx responses alike — so a receiver that hiccups for a
// few seconds loses nothing, while a dead one costs a bounded delay per
// payload and a counted failure, never an unbounded stall.
type webhookSink struct {
	url     string
	client  *http.Client
	ch      chan []byte
	wg      sync.WaitGroup
	queued  atomic.Uint64
	dropped atomic.Uint64
	failed  atomic.Uint64
	retries atomic.Uint64

	// Retry policy; fixed after construction (tests shrink the backoff).
	maxAttempts int
	backoffBase time.Duration
	backoffCap  time.Duration
	rng         *rand.Rand // delivery goroutine only

	// Optional observability, attached before delivery begins:
	// deliveryNs times successful deliveries (retries included) and
	// logStop ends the periodic status logger. notify wakes the status
	// logger early so the first drop or failure after a healthy streak
	// logs immediately instead of waiting out the tick.
	deliveryNs *telemetry.Histogram
	logStop    chan struct{}
	notify     chan struct{}
}

func newWebhookSink(url string) *webhookSink {
	return newWebhookSinkWithRetry(url, 4, 100*time.Millisecond, 2*time.Second)
}

func newWebhookSinkWithRetry(url string, maxAttempts int, base, cap time.Duration) *webhookSink {
	s := &webhookSink{
		url:         url,
		client:      &http.Client{Timeout: 5 * time.Second},
		ch:          make(chan []byte, 16),
		maxAttempts: maxAttempts,
		backoffBase: base,
		backoffCap:  cap,
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		notify:      make(chan struct{}, 1),
	}
	s.wg.Add(1)
	go s.run()
	return s
}

// deliver marshals one epoch's alerts and enqueues the payload.
func (s *webhookSink) deliver(alerts []detect.Alert) {
	out := make([]webhookAlert, len(alerts))
	for i, a := range alerts {
		out[i] = webhookAlert{
			Kind:     a.Kind.String(),
			Severity: a.Severity.String(),
			Epoch:    a.Epoch,
			Time:     a.Time.UTC().Format(time.RFC3339Nano),
			Metric:   a.Metric,
			Value:    a.Value,
			Baseline: a.Baseline,
			Score:    a.Score,
		}
		switch a.Kind {
		case detect.KindHeavyChange, detect.KindForecast, detect.KindNetwide:
			out[i].Flow = a.Key.String()
		case detect.KindSuperspreader:
			out[i].Src = flow.IPString(a.Key.SrcIP)
		case detect.KindVictimFanIn:
			out[i].Dst = flow.IPString(a.Key.DstIP)
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		s.failed.Add(1)
		return
	}
	select {
	case s.ch <- b:
		s.queued.Add(1)
	default:
		s.dropped.Add(1)
		s.nudge()
	}
}

// nudge wakes the status logger without blocking the caller; a pending
// wake-up is enough, extra ones coalesce.
func (s *webhookSink) nudge() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// instrument exposes the sink's live accounting — the counters that
// used to surface only in the Close line — as scrape-time samples,
// plus an event-time delivery-latency histogram.
func (s *webhookSink) instrument(reg *telemetry.Registry) {
	s.deliveryNs = reg.Histogram("webhook_delivery_ns",
		"successful webhook delivery latency, retries included, ns")
	reg.RegisterSampler(func(e *telemetry.Expo) {
		e.Counter("webhook_queued_total", "alert payloads enqueued for delivery", s.queued.Load())
		e.Counter("webhook_dropped_total", "payloads dropped on a full delivery queue", s.dropped.Load())
		e.Counter("webhook_failed_total", "payloads that exhausted the retry budget", s.failed.Load())
		e.Counter("webhook_retries_total", "delivery retries", s.retries.Load())
		e.Gauge("webhook_queue_len", "payloads waiting for delivery", float64(len(s.ch)))
	})
}

// startLog emits a structured status line whenever the delivery
// accounting moved since the last report, so drops and retries are
// visible while they happen instead of at shutdown. Besides the periodic
// tick, a nudge from the delivery path wakes it immediately on the first
// drop or failure after a healthy streak.
func (s *webhookSink) startLog(log *slog.Logger, every time.Duration) {
	s.logStop = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		var last [4]uint64
		for {
			select {
			case <-s.logStop:
				return
			case <-t.C:
			case <-s.notify:
			}
			cur := [4]uint64{s.queued.Load(), s.dropped.Load(), s.failed.Load(), s.retries.Load()}
			if cur == last {
				continue
			}
			attrs := []any{
				"queued", cur[0], "dropped", cur[1], "failed", cur[2],
				"retries", cur[3], "queue_len", len(s.ch),
			}
			if cur[1] != last[1] || cur[2] != last[2] {
				log.Warn("webhook: deliveries degraded", append(attrs, "kind", "degraded")...)
			} else {
				log.Info("webhook: status", attrs...)
			}
			last = cur
		}
	}()
}

func (s *webhookSink) run() {
	defer s.wg.Done()
	for b := range s.ch {
		if !s.post(b) {
			s.failed.Add(1)
			s.nudge()
		}
	}
}

// post attempts one payload's delivery under the retry budget, reporting
// whether it eventually landed. A non-2xx status is a failed attempt like
// any transport error: the receiver did not take custody of the alerts.
func (s *webhookSink) post(b []byte) bool {
	backoff := s.backoffBase
	var start time.Time
	if s.deliveryNs != nil {
		start = time.Now()
	}
	for attempt := 1; ; attempt++ {
		resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(b))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode < 300 {
				if s.deliveryNs != nil {
					s.deliveryNs.ObserveDuration(time.Since(start))
				}
				return true
			}
		}
		if attempt >= s.maxAttempts {
			return false
		}
		s.retries.Add(1)
		// Full backoff with jitter in [backoff/2, backoff): enough spread
		// that restarting receivers are not hit in lockstep.
		sleep := backoff/2 + time.Duration(s.rng.Int63n(int64(backoff/2)+1))
		time.Sleep(sleep)
		if backoff *= 2; backoff > s.backoffCap {
			backoff = s.backoffCap
		}
	}
}

// close drains the queue, stops the delivery goroutine and reports drops.
func (s *webhookSink) close(w io.Writer) {
	close(s.ch)
	if s.logStop != nil {
		close(s.logStop)
	}
	s.wg.Wait()
	if d, f, r := s.dropped.Load(), s.failed.Load(), s.retries.Load(); d+f+r > 0 {
		fmt.Fprintf(w, "webhook: %d deliveries dropped, %d failed, %d retries\n", d, f, r)
	}
}

func runExport(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	algo := fs.String("algo", "HashFlow", "measurement algorithm")
	mem := fs.Int("mem", 1<<20, "memory budget in bytes")
	pcapPath := fs.String("pcap", "", "read packets from this pcap file")
	profile := fs.String("profile", "CAIDA", "generate this trace profile when no pcap is given")
	flows := fs.Int("flows", 10000, "flows to generate when no pcap is given")
	seed := fs.Uint64("seed", 1, "RNG seed")
	to := fs.String("to", "127.0.0.1:2055", "collector address")
	epochPkts := fs.Uint64("epochpkts", 0,
		"rotate and export an epoch every N packets via the double-buffered background drain (0 = one epoch at end)")
	det := fs.Bool("detect", false,
		"run detection on each drained epoch (with -epochpkts); alerts print to stdout")
	traceN := fs.Int("trace", 0,
		"keep the last N epoch stage timelines and print them after the run (with -epochpkts)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *det && *epochPkts == 0 {
		return errors.New("-detect needs epoch rotation: pass -epochpkts too")
	}
	if *traceN > 0 && *epochPkts == 0 {
		return errors.New("-trace needs epoch rotation: pass -epochpkts too")
	}

	a, err := flowmon.ParseAlgorithm(*algo)
	if err != nil {
		return err
	}
	mcfg := flowmon.Config{MemoryBytes: *mem, Seed: *seed}
	rec, err := flowmon.New(a, mcfg)
	if err != nil {
		return err
	}

	conn, err := net.Dial("udp", *to)
	if err != nil {
		return err
	}
	defer conn.Close()
	exp := netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})

	// Epoch-aligned mode: the adaptive manager swaps the full recorder for
	// the reset standby at each boundary, and the flush worker extracts
	// and exports the drained epoch off the packet path, reusing one
	// record buffer across epochs.
	var (
		sink   collector.BatchRecorder = rec
		finish func() (epochs int, exported uint64, exportErr error)
		am     *adaptive.Metrics
		tr     *events.Tracer
	)
	if *epochPkts > 0 {
		standby, err := flowmon.New(a, mcfg)
		if err != nil {
			return err
		}
		ee := netflow.NewEpochExporter(nil, exp)
		var expErr error
		m, err := adaptive.NewDoubleBuffered(rec, standby, adaptive.Config{
			// Boundaries are packet-count driven here; park the
			// cardinality watermark out of the way.
			Capacity:        1,
			HighWatermark:   1,
			MaxEpochPackets: *epochPkts,
			CheckEvery:      1 << 62,
		}, ee.FlushFunc(700, func(err error) {
			if expErr == nil {
				expErr = err
			}
		}))
		if err != nil {
			return err
		}
		// A panicking drain stage is sticky and otherwise only surfaces
		// at Close; say so the moment it happens.
		m.SetDrainErrorHook(func(err error) {
			fmt.Fprintf(w, "warning: drain worker failed, epochs no longer exported: %v\n", err)
		})
		// Epoch-lifecycle instruments: export mode has no scrape
		// endpoint, so the instruments feed a drain-timing summary
		// printed with the final accounting instead.
		am = adaptive.NewMetrics(telemetry.NewRegistry())
		m.SetMetrics(am)
		if *traceN > 0 {
			// Per-epoch stage timelines from the drain worker's span hook,
			// printed after the summary (the hook never runs on the packet
			// path).
			tr = events.NewTracer(*traceN)
			m.SetSpanHook(func(ss adaptive.StageSpan) {
				sp := events.Begin("", ss.Epoch, time.Time{}, ss.Records)
				sp.StageNs("extract", ss.ExtractNs)
				sp.StageNs("flush", ss.FlushNs)
				if ss.DetectNs > 0 {
					sp.StageNs("detect", ss.DetectNs)
				}
				sp.StageNs("reset", ss.ResetNs)
				sp.End(nil, tr)
			})
		}
		var detector *detect.Detector
		if *det {
			// Detection rides the same drain worker as the export: the
			// packet path still only ever swaps recorders.
			detector, err = detect.NewDetector(detect.Config{})
			if err != nil {
				return err
			}
			detector.SetSink(func(as []detect.Alert) {
				for _, a := range as {
					fmt.Fprintln(w, a)
				}
			})
			if err := m.AttachDetector(detector); err != nil {
				return err
			}
		}
		sink = m
		finish = func() (int, uint64, error) {
			if m.EpochPackets() > 0 {
				m.Flush() // export the partial final epoch
			}
			m.Close()
			if err := m.DrainErr(); err != nil && expErr == nil {
				expErr = err
			}
			return m.Epoch(), ee.Exported(), expErr
		}
	}

	ing, err := collector.NewIngestor(sink, collector.DefaultBatchSize)
	if err != nil {
		return err
	}
	if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r := pcapio.NewReader(f)
		for {
			p, _, err := r.ReadPacket()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			ing.Add(p)
		}
	} else {
		prof, err := trace.ProfileByName(*profile)
		if err != nil {
			return err
		}
		tr, err := trace.Generate(prof, *flows, *seed)
		if err != nil {
			return err
		}
		s := tr.Stream(*seed)
		for {
			p, ok := s.Next()
			if !ok {
				break
			}
			ing.Add(p)
		}
	}
	ing.Flush()
	pkts := ing.Packets()

	if finish != nil {
		epochs, exported, err := finish()
		if err != nil {
			return err
		}
		if _, err = fmt.Fprintf(w, "processed %d packets, exported %d flow records in %d epochs to %s\n",
			pkts, exported, epochs, *to); err != nil {
			return err
		}
		if err := writeDrainSummary(w, am); err != nil {
			return err
		}
		return writeEpochTraces(w, tr)
	}
	recs := rec.Records()
	if err := exp.Export(recs, 700); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "processed %d packets, exported %d flow records to %s\n",
		pkts, len(recs), *to)
	return err
}

// writeDrainSummary prints the epoch-lifecycle timing the adaptive
// instruments collected over an epoch-aligned export run: where drain
// time went per stage, how long rotation stalled ingest, and whether
// any drain stage panicked.
func writeDrainSummary(w io.Writer, am *adaptive.Metrics) error {
	if am == nil {
		return nil
	}
	line := func(name string, h *telemetry.Histogram) error {
		s := h.Snapshot()
		if s.Count == 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "drain %s: p50 %v p95 %v max %v over %d epochs\n",
			name, time.Duration(s.Quantile(0.5)), time.Duration(s.Quantile(0.95)),
			time.Duration(s.Max()), s.Count)
		return err
	}
	for _, st := range []struct {
		name string
		h    *telemetry.Histogram
	}{
		{"extract", am.ExtractNs},
		{"flush", am.FlushCbNs},
		{"reset", am.ResetNs},
		{"rotation-stall", am.RotationStallNs},
	} {
		if err := line(st.name, st.h); err != nil {
			return err
		}
	}
	if n := am.DrainPanics.Value(); n != 0 {
		if _, err := fmt.Fprintf(w, "drain panics: %d\n", n); err != nil {
			return err
		}
	}
	return nil
}

// writeEpochTraces prints the retained per-epoch stage timelines from an
// export run with -trace, oldest first.
func writeEpochTraces(w io.Writer, tr *events.Tracer) error {
	if tr == nil {
		return nil
	}
	for _, et := range tr.Append(nil) {
		if _, err := fmt.Fprintf(w, "trace epoch %d: %d records", et.Epoch, et.Records); err != nil {
			return err
		}
		for _, st := range et.Stages {
			if _, err := fmt.Fprintf(w, " %s=%v", st.Name, time.Duration(st.Ns)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func runCollect(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:2055", "UDP listen address")
	idle := fs.Duration("idle", 3*time.Second, "stop after this long without datagrams")
	top := fs.Int("top", 10, "print this many largest flows")
	if err := fs.Parse(args); err != nil {
		return err
	}

	addr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(w, "listening on %s\n", conn.LocalAddr()); err != nil {
		return err
	}

	col := netflow.NewCollector()
	buf := make([]byte, netflow.MaxDatagramLen)
	got := false
	for {
		if err := conn.SetReadDeadline(time.Now().Add(*idle)); err != nil {
			return err
		}
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if got {
					break // exporter went quiet; summarize
				}
				continue // keep waiting for the first datagram
			}
			return err
		}
		got = true
		if err := col.Ingest(buf[:n]); err != nil {
			fmt.Fprintf(w, "bad datagram: %v\n", err)
		}
	}

	recs := col.FlowRecords()
	sort.Slice(recs, func(i, j int) bool { return recs[i].Count > recs[j].Count })
	fmt.Fprintf(w, "collected %d flow records (%d lost)\n", len(recs), col.Lost())
	for i, r := range recs {
		if i >= *top {
			break
		}
		fmt.Fprintf(w, "%3d. %-45s %d pkts\n", i+1, r.Key, r.Count)
	}
	return nil
}
