package cataero

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A Shuttle-like entry point used across the session tests.
func sessionProblem(class SolverClass) Problem {
	return Problem{
		Class:     class,
		Chemistry: EquilibriumAir,
		PInf:      4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: 1200,
		NStations: 14,
	}
}

// A small NS case (coarse grid, few steps) for cache and bench tests.
func smallNSProblem() Problem {
	return Problem{
		Class:     NS,
		Chemistry: EquilibriumAir,
		PInf:      5474.9, TInf: 216.65,
		VInf:       20 * math.Sqrt(1.4*287.05*216.65),
		NoseRadius: 0.3, TWall: 1500,
		NI: 8, NJ: 14, MaxSteps: 120,
	}
}

func TestSessionOptionDefaults(t *testing.T) {
	s := NewSession()
	if s.workers != runtime.GOMAXPROCS(0) {
		t.Errorf("default workers %d, want GOMAXPROCS %d", s.workers, runtime.GOMAXPROCS(0))
	}
	if s.chem != ChemistryUnset {
		t.Errorf("default chemistry %v", s.chem)
	}
}

func TestSessionOptionApplication(t *testing.T) {
	s := NewSession(
		WithChemistry(EquilibriumTitan),
		WithWorkers(3),
	)
	if s.workers != 3 || s.chem != EquilibriumTitan {
		t.Fatalf("options not applied: %+v", s)
	}
	// Invalid values are ignored, not stored.
	s2 := NewSession(WithWorkers(-1))
	if s2.workers != runtime.GOMAXPROCS(0) {
		t.Errorf("invalid option values should be ignored: workers=%d", s2.workers)
	}

	// The session chemistry stamps problems that leave Chemistry unset but
	// does not override an explicit choice, and the grid fields pass through
	// as the problem sets them.
	p := s.apply(Problem{Class: VSL})
	if p.Chemistry != EquilibriumTitan {
		t.Errorf("unset chemistry not defaulted: %v", p.Chemistry)
	}
	if p.NStations != 0 || p.NI != 0 || p.NJ != 0 || p.MaxSteps != 0 {
		t.Errorf("session stamped grid fields: %+v", p)
	}
	p = s.apply(Problem{Chemistry: EquilibriumAir, NStations: 5, NI: 6, NJ: 7, MaxSteps: 8, Gamma: 1.4})
	if p.Chemistry != EquilibriumAir || p.NStations != 5 || p.NI != 6 || p.NJ != 7 || p.MaxSteps != 8 || p.Gamma != 1.4 {
		t.Errorf("explicit problem fields overridden: %+v", p)
	}
}

func TestSessionSolveDefaultChemistry(t *testing.T) {
	// VSL demands equilibrium chemistry: without a session default the
	// unset chemistry resolves to ideal gas and fails...
	p := sessionProblem(VSL)
	p.Chemistry = ChemistryUnset
	if _, err := NewSession().Solve(context.Background(), p); err == nil {
		t.Fatal("VSL with ideal-gas default should fail")
	}
	// ...and with WithChemistry it succeeds.
	s := NewSession(WithChemistry(EquilibriumAir))
	env, err := s.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Error("no stagnation heating")
	}
}

func TestSessionTableBuiltOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	s := NewSession()
	for i := 0; i < 2; i++ {
		if _, err := s.Solve(context.Background(), smallNSProblem()); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.stack.TableBuilds(); n != 1 {
		t.Fatalf("repeated NS solves built the EOS table %d times, want 1", n)
	}
	// A fresh session has its own (empty) cache.
	s2 := NewSession()
	if n := s2.stack.TableBuilds(); n != 0 {
		t.Fatalf("fresh session stack has %d table builds", n)
	}
}

func TestSolveBatchPartialFailure(t *testing.T) {
	s := NewSession(WithWorkers(2))
	probs := []Problem{
		sessionProblem(VSL),
		{Class: VSL}, // no freestream: must fail without aborting the batch
		sessionProblem(PNS),
	}
	results, err := s.SolveBatch(context.Background(), probs)
	if err != nil {
		t.Fatalf("batch error %v, want per-problem failures only", err)
	}
	if len(results) != len(probs) {
		t.Fatalf("results %d", len(results))
	}
	if results[0].Err != nil || results[0].Env == nil || results[0].Env.QConvStag <= 0 {
		t.Errorf("problem 0 should succeed: %+v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("problem 1 should fail")
	}
	if results[2].Err != nil || results[2].Env == nil {
		t.Errorf("problem 2 should succeed: %+v", results[2].Err)
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d has index %d", i, r.Index)
		}
	}
}

func TestSolveBatchContextCancellation(t *testing.T) {
	s := NewSession(WithWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	probs := []Problem{sessionProblem(VSL), sessionProblem(EBL)}
	results, err := s.SolveBatch(ctx, probs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("result %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestSessionSolveTimeout(t *testing.T) {
	if testing.Short() {
		t.Skip("timed solve in short mode")
	}
	// A deadline that expires mid-iteration must abort the solver loop with
	// the context's error, not run to completion.
	s := NewSession()
	p := smallNSProblem()
	p.MaxSteps = 100000
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.Solve(ctx, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

func TestSessionShockShape(t *testing.T) {
	if testing.Short() {
		t.Skip("Euler solves in short mode")
	}
	s := NewSession()
	base := Problem{
		PInf: 10.9, TInf: 233, VInf: 6700,
		NoseRadius: 1.0, NI: 14, NJ: 24, MaxSteps: 2200,
	}
	pI, pE := base, base
	pI.Chemistry = IdealGas
	pE.Chemistry = EquilibriumAir
	results, err := s.ShockShapeBatch(context.Background(), []Problem{pI, pE})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("run %d: %v", i, r.Err)
		}
		if len(r.Env.X) == 0 || len(r.Env.BodyX) == 0 {
			t.Fatalf("run %d: empty envelope", i)
		}
	}
	if dE, dI := results[1].Env.Standoff, results[0].Env.Standoff; dE >= dI {
		t.Errorf("reacting standoff %g should be below ideal %g", dE, dI)
	}
}

func TestSessionFluxAndSequencingOptions(t *testing.T) {
	s := NewSession(WithFlux("hllc"), WithGridSequencing(true))
	p := s.apply(smallNSProblem())
	if p.Flux != "hllc" || p.GridSequencing != ToggleOn {
		t.Fatalf("options not stamped: flux=%q seq=%v", p.Flux, p.GridSequencing)
	}
	// A problem-level kernel wins over the session default.
	q := smallNSProblem()
	q.Flux = "ausm+"
	if got := s.apply(q).Flux; got != "ausm+" {
		t.Fatalf("problem flux overridden: %q", got)
	}
	env, err := s.Solve(context.Background(), smallNSProblem())
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Fatal("no NS wall heating from the HLLC grid-sequenced solve")
	}
}

func TestSessionUnknownFluxFails(t *testing.T) {
	s := NewSession(WithFlux("upwind-o-matic"))
	if _, err := s.Solve(context.Background(), smallNSProblem()); err == nil {
		t.Fatal("unknown flux kernel accepted")
	}
}

func TestSessionTimeSteppingOption(t *testing.T) {
	s := NewSession(WithTimeStepping("implicit"))
	if p := s.apply(smallNSProblem()); p.TimeStepping != "implicit" {
		t.Fatalf("WithTimeStepping not stamped: %q", p.TimeStepping)
	}
	// A problem-level integrator wins over the session default.
	q := smallNSProblem()
	q.TimeStepping = "explicit"
	if got := s.apply(q).TimeStepping; got != "explicit" {
		t.Fatalf("problem time stepping overridden: %q", got)
	}
	env, err := s.Solve(context.Background(), smallNSProblem())
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Fatal("no NS wall heating from the implicit solve")
	}
}

func TestSessionUnknownTimeSteppingFails(t *testing.T) {
	s := NewSession(WithTimeStepping("dual-time-o-matic"))
	if _, err := s.Solve(context.Background(), smallNSProblem()); err == nil {
		t.Fatal("unknown time integrator accepted")
	}
}

func TestTimeSteppingsList(t *testing.T) {
	names := TimeSteppings()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	if !found["explicit"] || !found["implicit"] {
		t.Fatalf("TimeSteppings() = %v, want explicit and implicit", names)
	}
}

func TestSessionMultilevelOptions(t *testing.T) {
	s := NewSession(WithLevels(3), WithLimiter("vanalbada"))
	p := s.apply(smallNSProblem())
	if p.Levels != 3 || p.Limiter != "vanalbada" {
		t.Fatalf("multilevel options not stamped: levels=%d limiter=%q", p.Levels, p.Limiter)
	}
	// Problem-level values win over the session defaults.
	q := smallNSProblem()
	q.Levels, q.Limiter = 2, "minmod"
	q = s.apply(q)
	if q.Levels != 2 || q.Limiter != "minmod" {
		t.Fatalf("problem multilevel knobs overridden: levels=%d limiter=%q", q.Levels, q.Limiter)
	}
}

func TestSessionUnknownCycleAndLimiterFail(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	p := fastNSProblem()
	p.Cycle = "w"
	if _, err := NewSession().Solve(context.Background(), p); err == nil {
		t.Error("unknown cycle accepted")
	}
	if _, err := NewSession(WithLimiter("superbee")).Solve(context.Background(), fastNSProblem()); err == nil {
		t.Error("unknown limiter accepted")
	}
}

// nsCaseFields is a valid NS case file's fields, less the braces, for tests
// that add one knob to it.
const nsCaseFields = `"class":"ns","p_inf":5474.9,"t_inf":216.65,"v_inf":1770.4,"nose_radius":0.3`

// Session.Normalize range-checks an in-code problem exactly as ParseCase
// checks a case file — same rule, same error — so nothing a case file
// rejects can be keyed or solved by building the Problem in code instead.
func TestNormalizeRejectsWhatCaseFilesReject(t *testing.T) {
	check := func(fields, knob string, p Problem) error {
		t.Helper()
		_, fileErr := ParseCase([]byte("{" + fields + "," + knob + "}"))
		if fileErr == nil {
			t.Fatalf("case file with %s parsed", knob)
		}
		_, err := NewSession().Normalize(p)
		if err == nil {
			key, _ := CaseKey(p)
			t.Errorf("Normalize accepted %s and keyed it %.12s", knob, key)
			return fileErr
		}
		if want := errors.Unwrap(fileErr).Error(); err.Error() != want {
			t.Errorf("%s: Normalize error %q, case-file error %q", knob, err, want)
		}
		return err
	}
	for _, c := range []struct {
		knob string
		set  func(*Problem)
	}{
		{`"n_stations":-5`, func(p *Problem) { p.NStations = -5 }},
		{`"ni":-1`, func(p *Problem) { p.NI = -1 }},
		{`"nj":-1`, func(p *Problem) { p.NJ = -1 }},
		{`"max_steps":-1`, func(p *Problem) { p.MaxSteps = -1 }},
		{`"levels":-2`, func(p *Problem) { p.Levels = -2 }},
		{`"refit_every":-3`, func(p *Problem) { p.RefitEvery = -3 }},
		{`"checkpoint_every":-1`, func(p *Problem) { p.CheckpointEvery = -1 }},
		{`"n_stations":1001`, func(p *Problem) { p.NStations = 1001 }},
		{`"ni":100000,"nj":100000`, func(p *Problem) { p.NI, p.NJ = 100000, 100000 }},
		{`"ni":1025`, func(p *Problem) { p.NI = 1025 }},
		{`"nj":1025`, func(p *Problem) { p.NJ = 1025 }},
		{`"ni":257,"nj":256`, func(p *Problem) { p.NI, p.NJ = 257, 256 }},
		{`"cycle":"v"`, func(p *Problem) { p.Cycle = "v" }},
		{`"flux":"bogus"`, func(p *Problem) { p.Flux = "bogus" }},
		{`"time_stepping":"rk4"`, func(p *Problem) { p.TimeStepping = "rk4" }},
		{`"implicit_sweep":"zebra"`, func(p *Problem) { p.ImplicitSweep = "zebra" }},
		{`"limiter":"superbee"`, func(p *Problem) { p.Limiter = "superbee" }},
	} {
		p := Problem{Class: NS, PInf: 5474.9, TInf: 216.65, VInf: 1770.4, NoseRadius: 0.3}
		c.set(&p)
		check(nsCaseFields, c.knob, p)
	}
	// The station minimums of the marching classes: E+BL needs two, PNS
	// three, and the error names the minimum.
	for _, c := range []struct {
		class SolverClass
		n     int
	}{{EBL, 1}, {PNS, 1}, {PNS, 2}} {
		fields := fmt.Sprintf(`"class":%q,"chemistry":"equilibrium-air","p_inf":4.8,"t_inf":217,"v_inf":6740,"nose_radius":0.6`, ClassName(c.class))
		knob := fmt.Sprintf(`"n_stations":%d`, c.n)
		p := Problem{Class: c.class, Chemistry: EquilibriumAir, PInf: 4.8, TInf: 217, VInf: 6740, NoseRadius: 0.6, NStations: c.n}
		if err := check(fields, knob, p); !strings.Contains(err.Error(), "minimum") {
			t.Errorf("%s %s: error %q does not name the minimum", ClassName(c.class), knob, err)
		}
	}
	// The minimums and the size bounds themselves are accepted.
	for _, p := range []Problem{
		{Class: EBL, Chemistry: EquilibriumAir, PInf: 4.8, TInf: 217, VInf: 6740, NoseRadius: 0.6, NStations: 2},
		{Class: PNS, Chemistry: EquilibriumAir, PInf: 4.8, TInf: 217, VInf: 6740, NoseRadius: 0.6, NStations: 3},
		{Class: PNS, Chemistry: EquilibriumAir, PInf: 4.8, TInf: 217, VInf: 6740, NoseRadius: 0.6, NStations: 1000},
		{Class: NS, PInf: 5474.9, TInf: 216.65, VInf: 1770.4, NoseRadius: 0.3, NI: 256, NJ: 256},
		{Class: NS, PInf: 5474.9, TInf: 216.65, VInf: 1770.4, NoseRadius: 0.3, NI: 1024, NJ: 64},
	} {
		if _, err := NewSession().Normalize(p); err != nil {
			t.Errorf("%s with %d stations, %dx%d: %v", ClassName(p.Class), p.NStations, p.NI, p.NJ, err)
		}
	}
	// A hyperboloid of 100 nose radii is the longest a case file can spell.
	if _, err := ParseCase([]byte(`{"class":"ebl","chemistry":"equilibrium-air","p_inf":4.8,"t_inf":217,"v_inf":6740,` +
		`"body":{"kind":"hyperboloid","nose_radius":0.5,"half_angle_deg":30,"max_s":50}}`)); err != nil {
		t.Errorf("hyperboloid of 100 nose radii: %v", err)
	}
}

// Every name the four enumerators list parses as a case file, keys apart
// from the other names of its family, and reaches the solver: 40 steps on
// an 8x14 ideal-gas NS grid land on a q_stag of its own (sweeps under
// implicit stepping). An unknown name fails ParseCase with the valid names.
func TestEnumeratedNamesAccepted(t *testing.T) {
	s := NewSession()
	for _, fam := range []struct {
		key, base string
		names     []string
	}{
		{"flux", "", FluxKernels()},
		{"time_stepping", "", TimeSteppings()},
		{"implicit_sweep", `"time_stepping":"implicit",`, ImplicitSweeps()},
		{"limiter", "", Limiters()},
	} {
		keys, qStag := map[string]string{}, map[float64]string{}
		for _, name := range fam.names {
			knob := fmt.Sprintf("%q:%q", fam.key, name)
			p, err := ParseCase([]byte("{" + nsCaseFields + `,"ni":8,"nj":14,"max_steps":40,` + fam.base + knob + "}"))
			if err != nil {
				t.Errorf("case file with %s: %v", knob, err)
				continue
			}
			key, err := CaseKey(p)
			if other, dup := keys[key]; err != nil || dup {
				t.Errorf("%s: key %.12s (err %v) already keys %q", knob, key, err, other)
			}
			keys[key] = name
			env, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Errorf("solve with %s: %v", knob, err)
				continue
			}
			if other, dup := qStag[env.QConvStag]; dup || !(env.QConvStag > 0) {
				t.Errorf("%s solves to q_stag %g W/m^2, as %q does: the name does not reach the solver", knob, env.QConvStag, other)
			}
			qStag[env.QConvStag] = name
		}
		knob := fmt.Sprintf("%q:\"nope\"", fam.key)
		if _, err := ParseCase([]byte("{" + nsCaseFields + "," + knob + "}")); err == nil || !strings.Contains(err.Error(), fmt.Sprint(fam.names)) {
			t.Errorf("case file with %s: error %v, want one listing %v", knob, err, fam.names)
		}
	}
}

// The cycle is validated input only: a case or problem naming any schedule
// but the cascade — the removed "v" included — fails ParseCase and
// Session.Normalize with an error naming the removal, while "cascade" still
// parses and turns sequencing on.
func TestRemovedCycleRejected(t *testing.T) {
	for _, cycle := range []string{"v", "w"} {
		_, err := ParseCase([]byte(`{"class":"ns","p_inf":100,"t_inf":250,"v_inf":2000,"nose_radius":0.3,"cycle":"` + cycle + `"}`))
		if err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("ParseCase cycle %q: error %v, want one naming the removal", cycle, err)
		}
		p := fastNSProblem()
		p.Cycle = cycle
		if _, err := NewSession().Normalize(p); err == nil || !strings.Contains(err.Error(), "removed") {
			t.Errorf("Normalize cycle %q: error %v, want one naming the removal", cycle, err)
		}
	}
	if _, err := ParseCase([]byte(`{"class":"ns","p_inf":100,"t_inf":250,"v_inf":2000,"nose_radius":0.3,"cycle":"cascade"}`)); err != nil {
		t.Fatalf("cycle \"cascade\" rejected: %v", err)
	}
	if testing.Short() {
		return
	}
	p := fastNSProblem()
	p.Cycle = "cascade"
	seen := map[string]bool{}
	p.Monitor = MonitorFunc(func(pr Progress) { seen[pr.Phase] = true })
	if _, err := NewSession().Solve(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if !seen["level0"] || !seen["level1"] || seen["solve"] {
		t.Fatalf("cycle \"cascade\" phases %v, want the two-level cascade", seen)
	}
}

// A session-level WithLevels turns the NS solve multilevel: the run reports
// per-level phases level0/level1 (the 8x14 grid reaches exactly two levels;
// deeper requests auto-drop), and ToggleOff still opts a problem out.
func TestMultilevelRunPhases(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solves in short mode")
	}
	s := NewSession(WithLevels(3))
	seen := map[string]bool{}
	p := fastNSProblem()
	p.Monitor = MonitorFunc(func(pr Progress) { seen[pr.Phase] = true })
	if _, err := s.Submit(context.Background(), p).Wait(); err != nil {
		t.Fatal(err)
	}
	if !seen["level0"] || !seen["level1"] || seen["level2"] || seen["solve"] {
		t.Fatalf("multilevel phases %v, want level0+level1", seen)
	}
	q := fastNSProblem()
	q.GridSequencing = ToggleOff
	seen = map[string]bool{}
	q.Monitor = MonitorFunc(func(pr Progress) { seen[pr.Phase] = true })
	if _, err := s.Submit(context.Background(), q).Wait(); err != nil {
		t.Fatal(err)
	}
	if seen["level0"] || !seen["solve"] {
		t.Fatalf("opted-out phases %v, want solve only", seen)
	}
}
