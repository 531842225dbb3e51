package fvm

import (
	"context"
	"math"
	"testing"
)

// TestCheckpointEncodeDecodeRoundTrip encodes a live solver checkpoint and
// verifies every field — float payloads bit for bit — survives the binary
// round trip.
func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	g, o, err := ReferenceViscousCase(8, 12, TimeSteppingImplicit)
	if err != nil {
		t.Fatal(err)
	}
	o.FreezeLimiterAt = 1e-2
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	cp := s.Checkpoint()
	cp.Step, cp.First, cp.Target = 20, 1.25, 3.5e-3
	enc, err := cp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCheckpoint(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Format != CheckpointFormat || dec.NI != cp.NI || dec.NJ != cp.NJ {
		t.Fatalf("shape: got format %d %dx%d, want %d %dx%d", dec.Format, dec.NI, dec.NJ, CheckpointFormat, cp.NI, cp.NJ)
	}
	if dec.Phase != cp.Phase || dec.Step != cp.Step || dec.First != cp.First || dec.Target != cp.Target {
		t.Fatalf("loop position: got %q %d %g %g, want %q %d %g %g",
			dec.Phase, dec.Step, dec.First, dec.Target, cp.Phase, cp.Step, cp.First, cp.Target)
	}
	if dec.CFL != cp.CFL || dec.RampBest != cp.RampBest || dec.RampStall != cp.RampStall ||
		dec.RampCap != cp.RampCap || dec.RampLows != cp.RampLows || dec.Fallbacks != cp.Fallbacks {
		t.Fatalf("ramp state did not round-trip: %+v vs %+v", dec, cp)
	}
	if dec.LimMode != cp.LimMode || dec.LimFirst != cp.LimFirst {
		t.Fatalf("limiter latch: got (%d, %g), want (%d, %g)", dec.LimMode, dec.LimFirst, cp.LimMode, cp.LimFirst)
	}
	bitEqual := func(name string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d floats, want %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %x != %x", name, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
	bitEqual("GridX", dec.GridX, cp.GridX)
	bitEqual("GridY", dec.GridY, cp.GridY)
	bitEqual("U", dec.U, cp.U)
	bitEqual("FrzI", dec.FrzI, cp.FrzI)
	bitEqual("FrzJ", dec.FrzJ, cp.FrzJ)
}

// TestDecodeCheckpointRejectsDamage exercises the torn-file paths: any
// corruption must fail decoding, never yield a checkpoint.
func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	g, o, err := ReferenceViscousCase(8, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	enc, err := s.Checkpoint().AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(enc); err != nil {
		t.Fatalf("pristine checkpoint failed to decode: %v", err)
	}
	cases := map[string][]byte{
		"empty":       nil,
		"truncated":   enc[:len(enc)/2],
		"bad magic":   append([]byte("NOTCKPT0"), enc[8:]...),
		"flipped bit": flipByte(enc, len(enc)/2),
		"torn tail":   enc[:len(enc)-7],
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decode succeeded on damaged data", name)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// TestRestoreRejectsMismatch: a checkpoint from a different grid shape must
// be refused, not silently misapplied.
func TestRestoreRejectsMismatch(t *testing.T) {
	g, o, err := ReferenceViscousCase(8, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	cp := s.Checkpoint()
	cp.NI++
	g2, o2, err := ReferenceViscousCase(8, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(g2, o2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Restore(cp); err == nil {
		t.Fatal("restore accepted a checkpoint for a different grid shape")
	}
	bad := &Checkpoint{Format: CheckpointFormat + 1}
	if err := s2.Restore(bad); err == nil {
		t.Fatal("restore accepted a foreign format version")
	}
}

// TestResumeBitExact is the crash/resume equivalence property: a march
// cancelled mid-run and resumed from its last checkpoint must reach the
// terminal state of the uninterrupted march bit for bit (same machine),
// while reporting strictly fewer process-local steps.
func TestResumeBitExact(t *testing.T) {
	const (
		maxSteps = 4000
		dropTol  = 5e-5
		cancelAt = 15
	)
	build := func() (*Solver, error) {
		g, o, err := ReferenceViscousCase(8, 12, TimeSteppingImplicit)
		if err != nil {
			return nil, err
		}
		o.FreezeLimiterAt = 1e-1
		return New(g, o)
	}

	// Uninterrupted reference march.
	cold, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldSteps := 0
	cold.Opts.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) { coldSteps = step }
	coldRes, err := cold.RunCtx(context.Background(), maxSteps, dropTol)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted march: periodic checkpoints, context cancelled mid-run;
	// the cancellation branch emits a final checkpoint before returning.
	victim, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var latest []byte
	victim.Opts.CheckpointEvery = 10
	victim.Opts.CheckpointSink = func(cp *Checkpoint) {
		enc, err := cp.AppendBinary(nil)
		if err != nil {
			t.Errorf("encode checkpoint: %v", err)
			return
		}
		latest = enc
	}
	victim.Opts.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) {
		if step >= cancelAt {
			cancel()
		}
	}
	if _, err := victim.RunCtx(ctx, maxSteps, dropTol); err == nil {
		t.Fatal("cancelled march returned no error (converged before the cancel point?)")
	}
	if latest == nil {
		t.Fatal("cancelled march emitted no checkpoint")
	}
	cp, err := DecodeCheckpoint(latest)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step == 0 {
		t.Fatal("checkpoint carries no step offset")
	}

	// Resume in a fresh solver and march to convergence.
	resumed, err := build()
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	resumedSteps, restarts := 0, 0
	resumed.Opts.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) {
		resumedSteps = step
		restarts = diag.Restarts
	}
	resumed.Opts.Restore = cp
	warmRes, err := resumed.RunCtx(context.Background(), maxSteps, dropTol)
	if err != nil {
		t.Fatal(err)
	}

	if math.Float64bits(warmRes) != math.Float64bits(coldRes) {
		t.Fatalf("terminal residual differs: resumed %v, cold %v", warmRes, coldRes)
	}
	for k := range cold.U {
		for c := 0; c < 4; c++ {
			if math.Float64bits(resumed.U[k][c]) != math.Float64bits(cold.U[k][c]) {
				t.Fatalf("U[%d][%d] differs after resume: %v vs %v", k, c, resumed.U[k][c], cold.U[k][c])
			}
		}
	}
	if resumedSteps >= coldSteps {
		t.Fatalf("resumed march reported %d process-local steps, cold march %d — resume saved nothing", resumedSteps, coldSteps)
	}
	if restarts != 1 {
		t.Fatalf("resumed march reported %d restarts, want 1", restarts)
	}
}

// TestCheckpointScratchReuse: after the first emission, Checkpoint() must
// fill the same scratch object (the allocation-free contract for the
// marching loop).
func TestCheckpointScratchReuse(t *testing.T) {
	g, o, err := ReferenceViscousCase(8, 12, "")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Step()
	a := s.Checkpoint()
	s.Step()
	b := s.Checkpoint()
	if a != b {
		t.Fatal("Checkpoint allocated a fresh object on the second call")
	}
	allocs := testing.AllocsPerRun(10, func() { s.Checkpoint() })
	if allocs != 0 {
		t.Fatalf("Checkpoint allocates %.0f objects per call after warm-up, want 0", allocs)
	}
}

// TestResumeSequencedBitExact is the resume equivalence property for the
// multilevel cascade, explicit and implicit, with and without mid-march
// refits: a solve cancelled partway through its finest-level march resumes
// from its level0 checkpoint — skipping the cascade — onto the
// uninterrupted solve's terminal state bit for bit. A stale checkpoint with
// the fine phase older builds wrote is ignored: the solve starts cold and
// lands on the same state.
func TestResumeSequencedBitExact(t *testing.T) {
	const (
		maxSteps = 4000
		dropTol  = 1e-3
		cancelAt = 30 // finest-level steps before the cancel
	)
	for _, tc := range []struct {
		name       string
		ts         string
		refitEvery int
	}{
		{"explicit", TimeSteppingExplicit, 0},
		{"explicit-refit", TimeSteppingExplicit, 20},
		{"implicit", TimeSteppingImplicit, 0},
		{"implicit-refit", TimeSteppingImplicit, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sq := SequenceOptions{Levels: 2, RefitEvery: tc.refitEvery}
			type outcome struct {
				s        *Solver
				res      float64
				phases   map[string]int // last reported step per phase
				restarts int
				refits   int
			}
			solve := func(ctx context.Context, restore *Checkpoint, every int, sink func(*Checkpoint), onStep func(phase string, step int)) (outcome, error) {
				g, o := seqCase(t)
				o.TimeStepping = tc.ts
				o.Restore = restore
				o.CheckpointEvery, o.CheckpointSink = every, sink
				out := outcome{phases: map[string]int{}}
				o.Progress = func(phase string, step, maxSteps int, residual float64, diag Diag) {
					out.phases[phase] = step
					out.restarts, out.refits = diag.Restarts, diag.Refits
					if onStep != nil {
						onStep(phase, step)
					}
				}
				s, res, err := SolveMultilevel(ctx, g, o, maxSteps, dropTol, sq)
				out.s, out.res = s, res
				return out, err
			}
			sameState := func(label string, got, want outcome) {
				t.Helper()
				if math.Float64bits(got.res) != math.Float64bits(want.res) {
					t.Fatalf("%s: terminal residual %v, uninterrupted %v", label, got.res, want.res)
				}
				for k := range want.s.U {
					for c := 0; c < 4; c++ {
						if math.Float64bits(got.s.U[k][c]) != math.Float64bits(want.s.U[k][c]) {
							t.Fatalf("%s: U[%d][%d] = %v, uninterrupted %v", label, k, c, got.s.U[k][c], want.s.U[k][c])
						}
					}
				}
				for i := range want.s.G.X {
					for j := range want.s.G.X[i] {
						if math.Float64bits(got.s.G.X[i][j]) != math.Float64bits(want.s.G.X[i][j]) ||
							math.Float64bits(got.s.G.Y[i][j]) != math.Float64bits(want.s.G.Y[i][j]) {
							t.Fatalf("%s: grid node (%d,%d) differs from the uninterrupted solve", label, i, j)
						}
					}
				}
			}

			cold, err := solve(context.Background(), nil, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cold.s.Close()
			if cold.phases["level0"] <= 2*cancelAt {
				t.Fatalf("finest march took %d steps, too few to interrupt at %d", cold.phases["level0"], cancelAt)
			}
			if tc.refitEvery > 0 && cold.refits == 0 {
				t.Fatal("refit case never refitted")
			}

			// Interrupted solve: checkpoints every 7 finest steps, cancelled
			// mid-march; the cancellation emits a final checkpoint.
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var latest []byte
			sink := func(cp *Checkpoint) {
				enc, err := cp.AppendBinary(nil)
				if err != nil {
					t.Errorf("encode checkpoint: %v", err)
					return
				}
				latest = enc
			}
			_, err = solve(ctx, nil, 7, sink, func(phase string, step int) {
				if phase == "level0" && step >= cancelAt {
					cancel()
				}
			})
			if err == nil {
				t.Fatal("cancelled solve returned no error")
			}
			if latest == nil {
				t.Fatal("cancelled solve emitted no checkpoint")
			}
			cp, err := DecodeCheckpoint(latest)
			if err != nil {
				t.Fatal(err)
			}
			if cp.Phase != "level0" || cp.FineSteps < cancelAt || cp.Target <= 0 {
				t.Fatalf("checkpoint phase %q after %d finest steps (target %g), want a mid-march level0 one", cp.Phase, cp.FineSteps, cp.Target)
			}
			if tc.refitEvery > 0 && cp.Refits == 0 {
				t.Fatal("checkpoint cut before the first refit; the refit bookkeeping goes unexercised")
			}

			warm, err := solve(context.Background(), cp, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.s.Close()
			sameState("resumed", warm, cold)
			if _, ok := warm.phases["level1"]; ok {
				t.Error("resumed solve re-ran the coarse level")
			}
			if warm.phases["level0"] >= cold.phases["level0"] || warm.restarts != 1 {
				t.Errorf("resumed solve: %d finest steps (cold %d), %d restarts; want fewer steps and 1 restart",
					warm.phases["level0"], cold.phases["level0"], warm.restarts)
			}

			// A stale checkpoint from the removed two-level path restarts cold.
			stale := *cp
			stale.Phase = "fine"
			again, err := solve(context.Background(), &stale, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer again.s.Close()
			sameState("stale checkpoint", again, cold)
			if again.phases["level1"] == 0 || again.restarts != 0 {
				t.Errorf("stale checkpoint: level1 steps %d, restarts %d; want a cold cascade", again.phases["level1"], again.restarts)
			}
		})
	}
}
