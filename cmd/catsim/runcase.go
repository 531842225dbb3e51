package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"cataero"
	"cataero/internal/ledger"
	"cataero/internal/serve"
)

// runCmd solves a declarative JSON case file: `catsim run case.json
// [-progress]`. The case is submitted as an asynchronous run; -progress
// follows it with a live residual ticker, and an interrupt cancels the run
// cleanly. Flags may come before or after the case path.
func runCmd(args []string) int {
	fs := flag.NewFlagSet("catsim run", flag.ExitOnError)
	progress := fs.Bool("progress", false, "print a live solver progress/residual ticker")
	fluxName := fs.String("flux", "", "override the case's flux kernel (see 'catsim kernels')")
	timestep := fs.String("timestep", "", "override the case's time integrator (explicit, implicit)")
	sweep := fs.String("implicitsweep", "", "override the case's implicit sweep pattern (jline, adi)")
	limiter := fs.String("limiter", "", "override the case's MUSCL slope limiter (minmod, vanalbada)")
	levels := fs.Int("levels", 0, "override the case's multilevel grid-level count (2 = two-level, 3+ = deeper)")
	refitEvery := fs.Int("refitevery", 0, "re-fit the outer boundary to the shock locus every N fine steps")
	workers := fs.Int("workers", 0, "concurrent solve bound (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
	ledgerDir := fs.String("ledger", "", "consult and update a run ledger (shared with 'catsim serve'); a stored checkpoint of the case is resumed")
	checkpoint := fs.Int("checkpoint", 0, "persist a resumable checkpoint to the ledger every N steps (requires -ledger)")
	outPath := fs.String("out", "", "write the solved environment as JSON to this file (the serve artifact)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: catsim run [flags] case.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}
	path := rest[0]
	// Accept trailing flags too: `catsim run case.json -progress`.
	if len(rest) > 1 {
		fs.Parse(rest[1:])
		if fs.NArg() > 0 {
			fmt.Fprintf(os.Stderr, "catsim run: unexpected argument %q\n", fs.Arg(0))
			return 2
		}
	}
	if !checkFlux(*fluxName) || !checkTimeStepping(*timestep) || !checkImplicitSweep(*sweep) || !checkLimiter(*limiter) {
		return 2
	}
	if *levels < 0 || *refitEvery < 0 {
		fmt.Fprintln(os.Stderr, "catsim run: -levels and -refitevery must be non-negative")
		return 2
	}
	if *checkpoint < 0 {
		fmt.Fprintln(os.Stderr, "catsim run: -checkpoint must be non-negative")
		return 2
	}
	if *checkpoint > 0 && *ledgerDir == "" {
		fmt.Fprintln(os.Stderr, "catsim run: -checkpoint needs -ledger DIR to store checkpoints")
		return 2
	}

	p, err := cataero.LoadCase(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *fluxName != "" {
		p.Flux = *fluxName
	}
	if *timestep != "" {
		p.TimeStepping = *timestep
	}
	if *sweep != "" {
		p.ImplicitSweep = *sweep
	}
	if *limiter != "" {
		p.Limiter = *limiter
	}
	if *levels != 0 {
		p.Levels = *levels
	}
	if *refitEvery != 0 {
		p.RefitEvery = *refitEvery
	}
	if *checkpoint != 0 {
		p.CheckpointEvery = *checkpoint
	}

	var opts []cataero.Option
	if *workers > 0 {
		opts = append(opts, cataero.WithWorkers(*workers))
	}
	s := cataero.NewSession(opts...)

	// With a ledger, identical cases hash to identical content keys (field
	// order and explicit defaults do not matter), so a prior solve — by this
	// command or by `catsim serve` over the same directory — is reused, and
	// an interrupted one resumes from the checkpoint it left under the key.
	var store *ledger.Ledger
	var job serve.Job
	solve := p
	if *ledgerDir != "" {
		var err error
		if store, err = ledger.Open(*ledgerDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if job, err = serve.Prepare(s, p); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if e, err := store.Get(job.Key); err == nil && e != nil {
			return reportLedgerHit(path, e, *outPath)
		}
		solve = job.Resumable(store, 0, func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "catsim run: %s\n", fmt.Sprintf(format, args...))
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	label := path
	if p.Name != "" {
		label = fmt.Sprintf("%s (%q)", path, p.Name)
	}
	fmt.Printf("case %s: %s class, %s\n", label, p.Class, p.Chemistry)
	run := s.Submit(ctx, solve)
	if *progress {
		followRun(run)
	}
	env, err := run.Wait()
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim run: %v\n", err)
		return 1
	}
	snap := run.Snapshot()
	printEnvironment(env, snap)

	result, err := json.Marshal(env)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim run: marshal result: %v\n", err)
		return 1
	}
	if store != nil {
		if err := job.Store(store, result, snap); err != nil {
			fmt.Fprintf(os.Stderr, "catsim run: ledger: %v\n", err)
		} else {
			fmt.Printf("  ledger       + %s\n", job.Key[:16])
		}
	}
	if *outPath != "" {
		if err := writeArtifact(*outPath, result); err != nil {
			fmt.Fprintf(os.Stderr, "catsim run: %v\n", err)
			return 1
		}
		fmt.Printf("  wrote        %s\n", *outPath)
	}
	return 0
}

// reportLedgerHit answers a run from a stored entry: no solve happens, the
// stored artifact is printed (and written to -out) exactly as a fresh solve's
// would be.
func reportLedgerHit(path string, e *ledger.Entry, outPath string) int {
	var env cataero.Environment
	if err := json.Unmarshal(e.Result, &env); err != nil {
		fmt.Fprintf(os.Stderr, "catsim run: ledger entry for %s is unreadable: %v\n", path, err)
		return 1
	}
	fmt.Printf("ledger hit %s (solved in %.1f ms by %s, toolkit %s)\n",
		e.Key[:16], e.ElapsedMS, e.Solver, e.Version)
	// Reconstruct what a fresh solve would have reported from the entry's
	// provenance; the stored snapshot is a display artifact, not re-parsed.
	printEnvironment(&env, cataero.Snapshot{
		Solver:  e.Solver,
		Elapsed: time.Duration(e.ElapsedMS * float64(time.Millisecond)),
	})
	if outPath != "" {
		if err := writeArtifact(outPath, e.Result); err != nil {
			fmt.Fprintf(os.Stderr, "catsim run: %v\n", err)
			return 1
		}
		fmt.Printf("  wrote        %s\n", outPath)
	}
	return 0
}

// writeArtifact writes the result JSON with a trailing newline.
func writeArtifact(path string, result []byte) error {
	return os.WriteFile(path, append(result, '\n'), 0o644)
}

// followRun prints a live progress line whenever the run advances, until it
// finishes. Lines print at most every 250 ms so long solves stay readable
// in logs. The residual carries a trend arrow computed from the snapshot's
// retained convergence history.
func followRun(run *cataero.Run) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	lastStep, lastPhase := -1, ""
	for {
		select {
		case <-run.Done():
			return
		case <-tick.C:
			snap := run.Snapshot()
			if snap.State != cataero.RunRunning || (snap.Step == lastStep && snap.Phase == lastPhase) {
				continue
			}
			lastStep, lastPhase = snap.Step, snap.Phase
			line := fmt.Sprintf("  [%s/%s] step %d", snap.Solver, snap.Phase, snap.Step)
			if snap.MaxSteps > 0 {
				line += fmt.Sprintf("/%d", snap.MaxSteps)
			}
			if snap.Residual > 0 {
				line += fmt.Sprintf("  residual %.3e %s", snap.Residual, trendArrow(snap.History()))
			}
			fmt.Printf("%s  elapsed %s\n", line, snap.Elapsed.Round(time.Millisecond))
		}
	}
}

// trendArrow summarizes a convergence history window: ↓ when the residual
// fell across the window, ↑ when it rose, → when it is holding level (or
// the window is too short to tell).
func trendArrow(hist []cataero.HistoryPoint) string {
	if len(hist) < 2 {
		return "→"
	}
	first, last := hist[0].Residual, hist[len(hist)-1].Residual
	switch {
	case last < 0.7*first:
		return "↓"
	case last > 1.3*first:
		return "↑"
	}
	return "→"
}

// printEnvironment reports the solved aerothermal environment.
func printEnvironment(env *cataero.Environment, snap cataero.Snapshot) {
	fmt.Printf("%s\n", env.Description)
	fmt.Printf("  q_conv(stag) = %.2f W/cm^2\n", env.QConvStag/1e4)
	if env.QRadStag > 0 {
		fmt.Printf("  q_rad(stag)  = %.2f W/cm^2\n", env.QRadStag/1e4)
	}
	if env.Standoff > 0 {
		fmt.Printf("  standoff     = %.2f mm\n", env.Standoff*1000)
	}
	if n := len(env.Surface); n > 0 {
		fmt.Printf("  surface      = %d stations, s = [0, %.3f] m\n", n, env.Surface[n-1].S)
	}
	if snap.Residual > 0 {
		fmt.Printf("  final residual %.3e after %d steps (%s, %s phase)\n",
			snap.Residual, snap.Step, snap.Solver, snap.Phase)
	}
	fmt.Printf("  wall clock   = %s\n", snap.Elapsed.Round(time.Millisecond))
}
