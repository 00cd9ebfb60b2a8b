// Command raidb runs the RAI metadata database: the MongoDB-like
// document store holding submission records, execution times, logs
// pointers, and competition rankings (paper §IV "MongoDB Database").
//
// Usage:
//
//	raidb [-addr host:port] [-journal file] [-metrics-addr host:port] [-pprof] [-broker host:port]
//	      [-trace-sample 1] [-ready-file path] [-version]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"rai/internal/core"
	"rai/internal/docstore"
	"rai/internal/readyfile"
	"rai/internal/telemetry"
)

// version is stamped by the CI pipeline; kept in lockstep with cmd/rai.
const version = "0.2.0-dev"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

func run(args []string, stdout, stderr io.Writer, ready chan<- string, quit <-chan struct{}) int {
	fs := flag.NewFlagSet("raidb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7402", "listen address")
	journal := fs.String("journal", "", "journal file for durability (empty = in-memory only)")
	storeBackend := fs.String("store-backend", "", "journal storage backend: memory or disk (default: disk when a journal path or -store-root is set, else memory)")
	storeRoot := fs.String("store-root", "", "root directory for the disk backend; the journal lives at <root>/rai.journal")
	metricsAddr := fs.String("metrics-addr", "", "serve GET /metrics on this address (empty = disabled)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof on the metrics address")
	brokerAddr := fs.String("broker", "", "broker address for shipping spans/events to the collector (empty = off)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling rate for traces this server starts spans for; propagated X-RAI-Sampled verdicts always win")
	drain := fs.Duration("drain", 10*time.Second, "in-flight request drain budget at shutdown")
	readyPath := fs.String("ready-file", "", "write a JSON readiness document (pid, bound addresses) here once serving")
	showVersion := fs.Bool("version", false, "print build information and exit")
	fs.StringVar(addr, "listen", *addr, "alias for -addr (\":0\" picks a free port, reported on stdout and the ready file)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *showVersion {
		fmt.Fprintln(stdout, telemetry.NewStamp("raidb", version))
		return 0
	}
	var handlerOpts []docstore.HandlerOption
	var reg *telemetry.Registry
	var metricsBound string
	health := telemetry.NewHealth()
	if *metricsAddr != "" {
		reg = telemetry.NewRegistry()
		telemetry.RegisterBuildInfo(reg, "raidb", version, nil)
		telemetry.RegisterProcessMetrics(reg)
		handlerOpts = append(handlerOpts, docstore.WithTelemetry(reg))
		mounts := []func(*http.ServeMux){health.Mount}
		if *pprofOn {
			mounts = append(mounts, telemetry.MountPprof)
		}
		maddr, closeMetrics, err := reg.ServeMetrics(*metricsAddr, mounts...)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: metrics listener: %v\n", err)
			return 1
		}
		defer closeMetrics()
		metricsBound = maddr
		fmt.Fprintf(stdout, "raidb metrics on http://%s/metrics\n", maddr)
	}
	// With a broker configured, finished spans (including the child spans
	// opened for traced requests) and log events ship to the collector.
	if *brokerAddr != "" {
		queue, err := core.NewRemoteQueue(context.Background(), *brokerAddr)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: broker: %v\n", err)
			return 1
		}
		defer queue.Close()
		exp := telemetry.NewExporter(context.Background(), "raidb", core.ShipTelemetry(queue),
			telemetry.WithExportMetrics(reg))
		defer exp.Close()
		// The sampler honors propagated X-RAI-Sampled verdicts (noted by
		// the handler) and hashes orphan traces at the local rate; spans
		// of dropped traces are filtered before the export queue.
		var sampler *telemetry.Sampler
		if *traceSample < 1 {
			sampler = telemetry.NewSampler(*traceSample, telemetry.WithSamplerMetrics(reg))
			handlerOpts = append(handlerOpts, docstore.WithHandlerSampler(sampler))
		}
		tracer := telemetry.NewTracer(4096, telemetry.WithSpanSink(sampler.SpanSink(exp.ExportSpan)),
			telemetry.WithTracerInstance(telemetry.NewInstanceID("raidb")))
		handlerOpts = append(handlerOpts, docstore.WithHandlerTracer(tracer))
		logger := telemetry.NewLogger("raidb",
			telemetry.WithLogWriter(stderr), telemetry.WithLogSink(exp.ExportEvent))
		logger.Info(context.Background(), "database started", telemetry.L("addr", *addr))
	}
	// Backend selection mirrors raifs: -store-backend names it
	// explicitly; otherwise a journal path (or -store-root) implies disk.
	journalPath := *journal
	if journalPath == "" && *storeRoot != "" {
		journalPath = filepath.Join(*storeRoot, "rai.journal")
	}
	backend := *storeBackend
	if backend == "" {
		if journalPath != "" {
			backend = "disk"
		} else {
			backend = "memory"
		}
	}
	var handler http.Handler
	switch backend {
	case "disk":
		if journalPath == "" {
			fmt.Fprintln(stderr, "raidb: -store-backend disk requires -journal or -store-root")
			return 2
		}
		pdb, err := docstore.OpenPersistent(journalPath)
		if err != nil {
			fmt.Fprintf(stderr, "raidb: opening journal: %v\n", err)
			return 1
		}
		defer pdb.Close()
		handler = docstore.Handler(pdb, nil, handlerOpts...)
		fmt.Fprintf(stdout, "raidb journaling to %s\n", journalPath)
	case "memory":
		handler = docstore.Handler(docstore.New(), nil, handlerOpts...)
	default:
		fmt.Fprintf(stderr, "raidb: unknown -store-backend %q (want memory or disk)\n", backend)
		return 2
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "raidb: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: handler}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(stdout, "raidb listening on %s\n", ln.Addr())
	if *readyPath != "" {
		info := readyfile.Info{Service: "raidb", PID: os.Getpid(), Addr: ln.Addr().String(), MetricsAddr: metricsBound}
		if err := readyfile.Write(*readyPath, info); err != nil {
			fmt.Fprintf(stderr, "raidb: %v\n", err)
			return 1
		}
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	health.SetReady(true)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-quit: // nil when running as a real daemon: blocks forever
	case <-ctx.Done():
		fmt.Fprintln(stdout, "raidb shutting down")
	}
	// Graceful drain: in-flight queries finish (and reach the journal)
	// before the listener goes away. Readiness flips first so load
	// balancers stop routing before the listener dies.
	health.SetReady(false)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		_ = srv.Close()
	}
	return 0
}
