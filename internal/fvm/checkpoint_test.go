package fvm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
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
	s, err := New(g, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	cp := s.Checkpoint()
	cp.Step, cp.Target = 20, 3.5e-3
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
	if dec.Phase != cp.Phase || dec.Step != cp.Step || dec.Target != cp.Target {
		t.Fatalf("march position: got %q %d %g, want %q %d %g",
			dec.Phase, dec.Step, dec.Target, cp.Phase, cp.Step, cp.Target)
	}
	if dec.CFL != cp.CFL || dec.RampBest != cp.RampBest || dec.RampStall != cp.RampStall ||
		dec.RampCap != cp.RampCap || dec.RampLows != cp.RampLows || dec.Fallbacks != cp.Fallbacks {
		t.Fatalf("ramp state did not round-trip: %+v vs %+v", dec, cp)
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
		// Checksummed, but 8 times the payload counts' sum wraps to the
		// empty payload's length.
		"count overflow": seal(overflowBody()),
		"format 1":       seal(format1Body()),
		"format 2":       seal(format2Body()),
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decode succeeded on damaged data", name)
		}
	}
	// A stale format is named by its version digit; foreign bytes are not a
	// checkpoint at all.
	for name, want := range map[string]string{
		"bad magic": "fvm: not a checkpoint (bad magic)",
		"format 1":  fmt.Sprintf("fvm: checkpoint format 1, want %d", CheckpointFormat),
		"format 2":  fmt.Sprintf("fvm: checkpoint format 2, want %d", CheckpointFormat),
	} {
		if _, err := DecodeCheckpoint(cases[name]); err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %q", name, err, want)
		}
	}
}

func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xff
	return out
}

// seal appends the SHA-256 trailer DecodeCheckpoint verifies, so a crafted
// body reaches the header and payload checks.
func seal(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append(body[:len(body):len(body)], sum[:]...)
}

// checkpointBody assembles an unsealed checkpoint from a magic, a raw JSON
// header and raw payload bytes.
func checkpointBody(magic, header string, payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(header)))
	return append(append(b, header...), payload...)
}

// overflowBody is a current-format body whose header promises 2^61 grid
// floats over an empty payload.
func overflowBody() []byte {
	return checkpointBody(checkpointMagic, fmt.Sprintf(
		`{"format":%d,"ni":1,"nj":1,"phase":"solve","step":1,"target":1,"n_grid":2305843009213693952,"n_u":0}`, CheckpointFormat), nil)
}

// format1Body is a one-cell body in the format-1 layout, with the relative
// march's latched first residual that format 2 dropped.
func format1Body() []byte {
	return checkpointBody("CATCKPT1",
		`{"format":1,"ni":1,"nj":1,"phase":"solve","step":3,"first":0.5,"n_grid":0,"n_u":4}`, make([]byte, 32))
}

// format2Body is a one-cell body in the format-2 layout, with the
// frozen-limiter latch and offset payloads that format 3 dropped.
func format2Body() []byte {
	return checkpointBody("CATCKPT2",
		`{"format":2,"ni":1,"nj":1,"phase":"solve","step":3,"target":1,"lim_mode":2,"lim_first":0.5,"n_grid":0,"n_u":4,"n_frz_i":2,"n_frz_j":2}`,
		make([]byte, 64))
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

// TestResumeSequencedBitExact is the crash/resume equivalence property of
// the one marching driver, for one-level solves and the two-level cascade,
// explicit and implicit, with and without mid-march refits: a solve
// cancelled partway through its finest-level march resumes from its
// checkpoint — skipping any cascade — onto the uninterrupted solve's
// terminal state bit for bit, while reporting strictly fewer process-local
// steps. A checkpoint of the other kind of solve (a "level0" one offered to
// a one-level solve, or a "solve" one to a sequenced solve) is ignored: the
// solve starts cold and lands on the same state.
func TestResumeSequencedBitExact(t *testing.T) {
	const (
		maxSteps = 4000
		dropTol  = 1e-3
		cancelAt = 30 // finest-level steps before the cancel
	)
	for _, tc := range []struct {
		name       string
		levels     int
		ts         string
		refitEvery int
	}{
		{"one-level-explicit", 1, TimeSteppingExplicit, 0},
		{"one-level-implicit", 1, TimeSteppingImplicit, 0},
		{"explicit", 2, TimeSteppingExplicit, 0},
		{"explicit-refit", 2, TimeSteppingExplicit, 20},
		{"implicit", 2, TimeSteppingImplicit, 0},
		{"implicit-refit", 2, TimeSteppingImplicit, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sq := SequenceOptions{Levels: tc.levels, RefitEvery: tc.refitEvery}
			finest, other := "level0", "solve"
			if tc.levels < 2 {
				finest, other = other, finest
			}
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
			if cold.phases[finest] <= 2*cancelAt {
				t.Fatalf("finest march took %d steps, too few to interrupt at %d", cold.phases[finest], cancelAt)
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
				if phase == finest && step >= cancelAt {
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
			if cp.Phase != finest || cp.Step < cancelAt || cp.Target <= 0 {
				t.Fatalf("checkpoint phase %q after %d finest steps (target %g), want a mid-march %s one", cp.Phase, cp.Step, cp.Target, finest)
			}
			if tc.refitEvery > 0 && cp.Refits == 0 {
				t.Fatal("checkpoint cut before the first refit; the refit bookkeeping goes unexercised")
			}

			// The resumed march continues the step count (the budget spent),
			// so its next checkpoint lands on the cadence after cp.Step.
			next := 0
			warm, err := solve(context.Background(), cp, 7, func(c *Checkpoint) {
				if next == 0 {
					next = c.Step
				}
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer warm.s.Close()
			sameState("resumed", warm, cold)
			if _, ok := warm.phases["level1"]; ok {
				t.Error("resumed solve re-ran the coarse level")
			}
			if warm.phases[finest] >= cold.phases[finest] || warm.restarts != 1 {
				t.Errorf("resumed solve: %d finest steps (cold %d), %d restarts; want fewer steps and 1 restart",
					warm.phases[finest], cold.phases[finest], warm.restarts)
			}
			if want := (cp.Step/7 + 1) * 7; next != want {
				t.Errorf("resumed solve's first checkpoint at step %d, want %d (resumed at %d)", next, want, cp.Step)
			}

			// The other kind of solve's checkpoint restarts cold.
			stale := *cp
			stale.Phase = other
			again, err := solve(context.Background(), &stale, 0, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer again.s.Close()
			sameState("stale checkpoint", again, cold)
			if again.phases[finest] != cold.phases[finest] || again.restarts != 0 {
				t.Errorf("stale checkpoint: %d finest steps (cold %d), %d restarts; want a cold solve",
					again.phases[finest], cold.phases[finest], again.restarts)
			}
		})
	}
}

// TestResumeFromEveryPeriodicCheckpoint resumes refit-mode solves from every
// periodic checkpoint they emit, and each resume must land on the
// uninterrupted solve's terminal state bit for bit. A killed process leaves
// only periodic checkpoints behind, so each one must be as good as the
// cancellation checkpoint. The cadences hit refit steps (fine steps 11, 21,
// … at one level, whose first step sets the target and does not count
// toward RefitEvery; 10, 20, … at two levels), where a checkpoint taken
// before the step's refit bookkeeping resumes one refit late. The solves
// stop at a step cap, which keeps the resumes short; one worker keeps them
// cheap.
func TestResumeFromEveryPeriodicCheckpoint(t *testing.T) {
	const maxSteps = 80
	pool := NewPool(1)
	defer pool.Close()
	for _, tc := range []struct {
		name   string
		ts     string
		levels int
		every  int
	}{
		{"one-level-explicit", TimeSteppingExplicit, 1, 3},
		{"two-level-explicit", TimeSteppingExplicit, 2, 5},
		{"one-level-implicit", TimeSteppingImplicit, 1, 3},
		{"two-level-implicit", TimeSteppingImplicit, 2, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			finest := "solve"
			if tc.levels > 1 {
				finest = "level0"
			}
			solve := func(restore *Checkpoint, sink func(*Checkpoint), progress ProgressFunc) (*Solver, float64) {
				t.Helper()
				g, o := seqCase(t)
				o.Pool, o.TimeStepping, o.Restore = pool, tc.ts, restore
				o.CheckpointEvery, o.CheckpointSink, o.Progress = tc.every, sink, progress
				s, res, err := SolveMultilevel(context.Background(), g, o, maxSteps, 1e-3, SequenceOptions{Levels: tc.levels, RefitEvery: 10})
				if err != nil {
					t.Fatal(err)
				}
				return s, res
			}
			var ckpts [][]byte
			refitAt := map[int]bool{} // the finest steps that refitted
			refits := 0
			cold, coldRes := solve(nil, func(cp *Checkpoint) {
				enc, err := cp.AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				ckpts = append(ckpts, enc)
			}, func(phase string, step, maxSteps int, residual float64, d Diag) {
				// A refit lands after its step's report, so the next
				// report is the first to count it.
				if phase == finest && d.Refits > refits {
					refitAt[step-1], refits = true, d.Refits
				}
			})
			defer cold.Close()
			hits := 0
			for _, enc := range ckpts {
				cp, err := DecodeCheckpoint(enc)
				if err != nil {
					t.Fatal(err)
				}
				if refitAt[cp.Step] {
					hits++
				}
				s, res := solve(cp, nil, nil)
				if cp.Step == maxSteps {
					res = coldRes // the resume took no step, so it has no residual to return
				}
				if diff := stateDiff(s, cold); diff != "" || math.Float64bits(res) != math.Float64bits(coldRes) {
					t.Errorf("resumed from step %d (refits %d): residual %v, cold %v; %s", cp.Step, cp.Refits, res, coldRes, diff)
				}
				s.Close()
			}
			if hits == 0 {
				t.Errorf("none of %d checkpoints falls on a refit step (refits at %v)", len(ckpts), refitAt)
			}
		})
	}
}

// stateDiff names the first conserved value or grid node on which two
// solvers differ in any bit, or returns "".
func stateDiff(got, want *Solver) string {
	for k := range want.U {
		for c := 0; c < 4; c++ {
			if math.Float64bits(got.U[k][c]) != math.Float64bits(want.U[k][c]) {
				return fmt.Sprintf("U[%d][%d] = %v, want %v", k, c, got.U[k][c], want.U[k][c])
			}
		}
	}
	for i := range want.G.X {
		for j := range want.G.X[i] {
			if math.Float64bits(got.G.X[i][j]) != math.Float64bits(want.G.X[i][j]) ||
				math.Float64bits(got.G.Y[i][j]) != math.Float64bits(want.G.Y[i][j]) {
				return fmt.Sprintf("grid node (%d,%d) differs", i, j)
			}
		}
	}
	return ""
}
