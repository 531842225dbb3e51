package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

// testStack is shared by the dispatch tests, as a session's stack is shared
// by its solves, so each model set and EOS table builds once per run.
var testStack = NewStack()

// A Shuttle-like entry point used across the dispatch tests.
func entryProblem(class SolverClass) Problem {
	return Problem{
		Class:     class,
		Chemistry: EquilibriumAir,
		PInf:      4.8, TInf: 217, VInf: 6740,
		NoseRadius: 0.6, TWall: 1200,
		NStations: 14,
	}
}

func TestSolverClassStrings(t *testing.T) {
	for _, c := range []SolverClass{VSL, EBL, PNS, NS} {
		if c.String() == "unknown" || c.String() == "" {
			t.Errorf("class %d has no name", c)
		}
	}
	if SolverClass(99).String() != "unknown" {
		t.Error("unknown class should say so")
	}
}

func TestDispatchVSL(t *testing.T) {
	env, err := SolveWith(context.Background(), testStack, entryProblem(VSL))
	if err != nil {
		t.Fatal(err)
	}
	if env.Class != VSL {
		t.Error("wrong class")
	}
	if env.QConvStag < 1e4 || env.QConvStag > 1e7 {
		t.Errorf("VSL stagnation heating %g outside band", env.QConvStag)
	}
	if env.Standoff <= 0 {
		t.Error("no standoff")
	}
}

func TestDispatchEBL(t *testing.T) {
	p := entryProblem(EBL)
	p.GammaW = 1
	env, err := SolveWith(context.Background(), testStack, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Surface) != p.NStations {
		t.Fatalf("surface points %d", len(env.Surface))
	}
	// Surface heating decays from the stagnation value.
	if env.Surface[len(env.Surface)-1].Q > env.Surface[0].Q {
		t.Error("heating should decay along the body")
	}
}

// The EBL class reports station-level progress through the problem Monitor,
// like the marching classes do, so Run snapshots are uniform across solver
// classes.
func TestEBLStationProgress(t *testing.T) {
	p := entryProblem(EBL)
	var stations []int
	total := 0
	p.Monitor = MonitorFunc(func(pr Progress) {
		if pr.Solver != "ebl" || pr.Phase != "stations" {
			t.Errorf("unexpected solver/phase %q/%q", pr.Solver, pr.Phase)
		}
		stations = append(stations, pr.Step)
		total = pr.MaxSteps
	})
	if _, err := SolveWith(context.Background(), testStack, p); err != nil {
		t.Fatal(err)
	}
	if len(stations) != p.NStations || total != p.NStations {
		t.Fatalf("saw %d station reports (total %d), want %d", len(stations), total, p.NStations)
	}
	for i, s := range stations {
		if s != i+1 {
			t.Fatalf("station %d reported as %d", i+1, s)
		}
	}
}

func TestDispatchPNS(t *testing.T) {
	env, err := SolveWith(context.Background(), testStack, entryProblem(PNS))
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Error("no PNS stagnation heating")
	}
	if len(env.Surface) == 0 {
		t.Error("no PNS surface distribution")
	}
}

func TestDispatchNS(t *testing.T) {
	if testing.Short() {
		t.Skip("NS solve in short mode")
	}
	p := Problem{
		Class:     NS,
		Chemistry: EquilibriumAir,
		PInf:      5474.9, TInf: 216.65,
		VInf:       20 * math.Sqrt(1.4*287.05*216.65),
		NoseRadius: 0.3, TWall: 1500,
		NI: 12, NJ: 22, MaxSteps: 2200,
	}
	env, err := SolveWith(context.Background(), testStack, p)
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Error("no NS wall heating")
	}
	if env.Standoff <= 0 || env.Standoff > 0.3*0.3*10 {
		t.Errorf("NS standoff %g", env.Standoff)
	}
}

func TestCrossClassConsistency(t *testing.T) {
	// The framework claim: different members of the hierarchy agree on the
	// stagnation heating within a factor ~2 for the same problem.
	envV, err := SolveWith(context.Background(), testStack, entryProblem(VSL))
	if err != nil {
		t.Fatal(err)
	}
	p := entryProblem(EBL)
	p.GammaW = 1
	envE, err := SolveWith(context.Background(), testStack, p)
	if err != nil {
		t.Fatal(err)
	}
	envP, err := SolveWith(context.Background(), testStack, entryProblem(PNS))
	if err != nil {
		t.Fatal(err)
	}
	qs := []float64{envV.QConvStag, envE.QConvStag, envP.QConvStag}
	for i := 1; i < len(qs); i++ {
		r := qs[i] / qs[0]
		if r < 0.4 || r > 2.5 {
			t.Errorf("class %d stagnation heating %g vs VSL %g (ratio %g)", i, qs[i], qs[0], r)
		}
	}
}

func TestShockShapeReactingCloser(t *testing.T) {
	if testing.Short() {
		t.Skip("Euler solves in short mode")
	}
	base := Problem{
		PInf: 10.9, TInf: 233, VInf: 6700,
		NoseRadius: 1.0, NI: 14, NJ: 24, MaxSteps: 2200,
	}
	pI := base
	pI.Chemistry = IdealGas
	envI, err := ShockShapeWith(context.Background(), testStack, pI)
	if err != nil {
		t.Fatal(err)
	}
	pE := base
	pE.Chemistry = EquilibriumAir
	envE, err := ShockShapeWith(context.Background(), testStack, pE)
	if err != nil {
		t.Fatal(err)
	}
	if envE.Standoff >= envI.Standoff {
		t.Errorf("reacting standoff %g should be below ideal %g", envE.Standoff, envI.Standoff)
	}
}

func TestProblemValidation(t *testing.T) {
	if _, err := SolveWith(context.Background(), testStack, Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
	if _, err := SolveWith(context.Background(), testStack, Problem{PInf: 1, TInf: 1, VInf: 1}); err == nil {
		t.Error("problem without geometry accepted")
	}
	p := entryProblem(VSL)
	p.Chemistry = IdealGas
	if _, err := SolveWith(context.Background(), testStack, p); err == nil {
		t.Error("VSL with ideal gas should demand equilibrium chemistry")
	}
}

func TestDispatchUnknownClass(t *testing.T) {
	p := entryProblem(SolverClass(99))
	if _, err := SolveWith(context.Background(), testStack, p); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestRegistryContents(t *testing.T) {
	if len(solvers) != len(classNames) {
		t.Fatalf("%d solvers for %d case-file classes", len(solvers), len(classNames))
	}
	for c := range classNames {
		s, err := Lookup(c)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() == "" {
			t.Errorf("class %s solver has no name", c)
		}
	}
	if _, err := Lookup(SolverClass(42)); err == nil {
		t.Error("lookup of an unknown class succeeded")
	}
}

func TestDispatchPNSIdealGas(t *testing.T) {
	p := entryProblem(PNS)
	p.Chemistry = IdealGas
	p.Gamma = 1.2
	env, err := SolveWith(context.Background(), testStack, p)
	if err != nil {
		t.Fatal(err)
	}
	if env.QConvStag <= 0 {
		t.Error("no ideal-gas PNS stagnation heating")
	}
	if len(env.Surface) != p.NStations {
		t.Errorf("surface points %d", len(env.Surface))
	}
	// Heating decays along the body, as in the equilibrium march.
	if env.Surface[len(env.Surface)-1].Q > env.Surface[0].Q {
		t.Error("ideal-gas heating should decay along the body")
	}
}

func TestStackModelCache(t *testing.T) {
	st := NewStack()
	a, err := st.Models(EquilibriumAir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Models(EquilibriumAir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Models lookups should return the cached pointer")
	}
	ti, err := st.Models(EquilibriumTitan)
	if err != nil {
		t.Fatal(err)
	}
	if ti == a {
		t.Error("distinct chemistries must not share a model set")
	}
	if _, err := st.Models(IdealGas); err == nil {
		t.Error("ideal gas should have no equilibrium model stack")
	}
	if _, err := st.Models(ChemistryUnset); err == nil {
		t.Error("unset chemistry should have no model stack")
	}
	r1, err := st.Radiation(EquilibriumTitan)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.Radiation(EquilibriumTitan)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("repeated Radiation lookups should return the cached pointer")
	}
}

func TestStackTableCache(t *testing.T) {
	st := NewStack()
	spec := TableSpec{RhoMin: 1e-4, RhoMax: 1.0, EMin: 2e5, EMax: 3e7, NR: 8, NE: 8}
	t1, err := st.Table(spec)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := st.Table(spec)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("identical specs should share one table")
	}
	if n := st.TableBuilds(); n != 1 {
		t.Errorf("table built %d times, want 1", n)
	}
	spec.NR = 9
	if _, err := st.Table(spec); err != nil {
		t.Fatal(err)
	}
	if n := st.TableBuilds(); n != 2 {
		t.Errorf("table built %d times after second spec, want 2", n)
	}
}

func TestSolveWithCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveWith(ctx, NewStack(), entryProblem(VSL))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
