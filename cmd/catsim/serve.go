package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cataero"
	"cataero/internal/ledger"
	"cataero/internal/serve"
)

// serveCmd runs the aerothermal solve service: an HTTP/JSON front end over
// one cataero.Session with a persistent content-addressed run ledger.
// Repeat submissions of a case the ledger already holds are answered from
// disk without re-solving; `catsim run -ledger` shares the same store.
//
// With a ledger, every solve resumes from a checkpoint stored under its case
// key, and with -checkpoint N, in-flight solves persist one to the ledger
// every N steps. SIGTERM/SIGINT drains the server — new submissions
// get 503, in-flight runs are checkpointed and cancelled within
// -drain-timeout — and the next `catsim serve` over the same ledger
// re-submits interrupted runs from their checkpoints.
func serveCmd(args []string) int {
	fs := flag.NewFlagSet("catsim serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	ledgerDir := fs.String("ledger", "", "run-ledger directory (empty = serve without caching)")
	workers := fs.Int("workers", 0, "concurrent solve bound: the session's width, whose queue admits waiting runs by X-Priority lane (0 = GOMAXPROCS)")
	quotaRate := fs.Float64("quota-rate", 0, "per-client solve admissions per second (0 = unlimited)")
	quotaBurst := fs.Int("quota-burst", 4, "per-client admission burst (token-bucket depth)")
	checkpoint := fs.Int("checkpoint", 0, "checkpoint in-flight solves to the ledger every N steps (0 = none; stored checkpoints resume either way; requires -ledger)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on checkpointing and stopping in-flight runs at shutdown")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: catsim serve [-addr :8080] [-ledger DIR] [-workers N] [-quota-rate R] [-quota-burst B] [-checkpoint N] [-drain-timeout D]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "catsim serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *checkpoint < 0 {
		fmt.Fprintln(os.Stderr, "catsim serve: -checkpoint must be non-negative")
		return 2
	}
	if *checkpoint > 0 && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "catsim serve: -checkpoint needs -ledger DIR to store checkpoints")
		return 2
	}

	var opts []cataero.Option
	if *workers > 0 {
		opts = append(opts, cataero.WithWorkers(*workers))
	}
	session := cataero.NewSession(opts...)

	var store *ledger.Ledger
	if *ledgerDir != "" {
		var err error
		if store, err = ledger.Open(*ledgerDir); err != nil {
			fmt.Fprintf(os.Stderr, "catsim serve: %v\n", err)
			return 1
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%s] %s\n",
			time.Now().Format("15:04:05"), fmt.Sprintf(format, args...))
	}
	srv, err := serve.New(serve.Config{
		Session:         session,
		Ledger:          store,
		QuotaRate:       *quotaRate,
		QuotaBurst:      *quotaBurst,
		CheckpointEvery: *checkpoint,
		Logf:            logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim serve: %v\n", err)
		return 1
	}
	defer srv.Close()

	// A previous process (drained or crashed) may have left interrupted
	// runs behind; re-submit them from their checkpoints before taking
	// traffic.
	if store != nil {
		if n, err := srv.Recover(); err != nil {
			logf("recover: %v", err)
		} else if n > 0 {
			logf("recovered %d interrupted run(s) from ledger checkpoints", n)
		}
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Drain first: reject new admissions, checkpoint and stop in-flight
		// solves; then close the listener. In-flight HTTP responses (e.g.
		// ?wait=1 waiters) get the drain window too.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(drainCtx); err != nil {
			logf("drain: %v", err)
		}
		_ = httpSrv.Shutdown(drainCtx)
	}()

	if store != nil {
		logf("serving on %s (ledger %s)", *addr, store.Dir())
	} else {
		logf("serving on %s (no ledger: every submission solves)", *addr)
	}
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "catsim serve: %v\n", err)
		return 1
	}
	logf("shut down")
	return 0
}
