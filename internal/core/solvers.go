package core

import (
	"cmp"
	"context"
	"fmt"
	"math"

	"cataero/internal/blayer"
	"cataero/internal/euler"
	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/ns"
	"cataero/internal/pns"
	"cataero/internal/radiation"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/vsl"
)

// sequenceFor maps the problem-level grid-sequencing toggle and multilevel
// knobs onto the FVM sequencing options (the outer boundary is left where
// the case put it so sequenced and plain solves share a grid). Asking for
// multilevel machinery — Levels, the cascade Cycle, or mid-march refitting
// — implies sequencing unless GridSequencing is ToggleOff; an unresolved
// ToggleDefault with no multilevel knobs — a plain problem solved outside a
// session — means off, the zero (single-level) options. Sequencing with
// Levels unset runs the two-level cascade.
func sequenceFor(p Problem) fvm.SequenceOptions {
	multi := p.Levels >= 1 || p.Cycle != "" || p.RefitEvery > 0
	if !p.GridSequencing.Enabled(multi) {
		return fvm.SequenceOptions{}
	}
	return fvm.SequenceOptions{Levels: cmp.Or(p.Levels, 2), RefitEvery: p.RefitEvery}
}

// fvmOptions builds the finite-volume numerics of an NS or Euler solve: the
// problem's solve knobs pass through unchanged, the sweeps run on the
// stack's shared pool, and progress reaches the problem's Monitor stamped
// with the solver name. The solver class fills in the physics fields.
func fvmOptions(st *Stack, p Problem, solver string) fvm.Options {
	return fvm.Options{
		Flux: p.Flux, TimeStepping: p.TimeStepping, ImplicitSweep: p.ImplicitSweep, Limiter: p.Limiter,
		CheckpointEvery: p.CheckpointEvery, CheckpointSink: p.CheckpointSink, Restore: p.Restore,
		Pool: st.Pool(), Progress: fvmProgress(p, solver),
	}
}

// fvmProgress adapts the problem's Monitor to the finite-volume kernel's
// per-step callback, stamping the solver identity onto every observation.
func fvmProgress(p Problem, solver string) fvm.ProgressFunc {
	if p.Monitor == nil {
		return nil
	}
	mon, class := p.Monitor, p.Class
	return func(phase string, step, maxSteps int, residual float64, diag fvm.Diag) {
		mon.OnProgress(Progress{
			Class: class, Solver: solver, Phase: phase,
			Step: step, MaxSteps: maxSteps, Residual: residual,
			Fallbacks: diag.Fallbacks, Refits: diag.Refits, Restarts: diag.Restarts,
		})
	}
}

// countProgress adapts the problem's Monitor to the (step, total) callbacks
// of the marching and profile solvers, which have no residual to report.
func countProgress(p Problem, solver, phase string) func(step, total int) {
	if p.Monitor == nil {
		return nil
	}
	mon, class := p.Monitor, p.Class
	return func(step, total int) {
		mon.OnProgress(Progress{
			Class: class, Solver: solver, Phase: phase,
			Step: step, MaxSteps: total,
		})
	}
}

// phaseProgress adapts the problem's Monitor to callbacks that report their
// own phase alongside (step, total) — solvers whose coarse stages would
// otherwise run silent (the VSL radiation pass, marching setup sweeps).
func phaseProgress(p Problem, solver string) func(phase string, step, total int) {
	if p.Monitor == nil {
		return nil
	}
	mon, class := p.Monitor, p.Class
	return func(phase string, step, total int) {
		mon.OnProgress(Progress{
			Class: class, Solver: solver, Phase: phase,
			Step: step, MaxSteps: total,
		})
	}
}

// equilibriumModels pulls the cached model set and optional radiation model
// for a problem that requires equilibrium chemistry.
func equilibriumModels(st *Stack, p Problem) (*Models, *radiation.Model, error) {
	m, err := st.Models(p.Chemistry)
	if err != nil {
		return nil, nil, fmt.Errorf("core: solver class %s needs an equilibrium chemistry model: %w", p.Class, err)
	}
	var rad *radiation.Model
	if p.Radiation {
		if rad, err = st.Radiation(p.Chemistry); err != nil {
			return nil, nil, err
		}
	}
	return m, rad, nil
}

// nsTableSpec is the tabulation rectangle for an NS-class equilibrium-air
// solve: bounds derived deterministically from the freestream so repeated
// solves of the same condition share one cached table.
func nsTableSpec(rhoInf, vInf float64) TableSpec {
	return TableSpec{
		RhoMin: rhoInf * 0.05, RhoMax: rhoInf * 40,
		EMin: 1e5, EMax: 2.0 * (0.5*vInf*vInf + 1e6),
		NR: 30, NE: 30,
	}
}

// shockTableSpec is the (wider-density) rectangle for Euler shock-shape
// solves, which see stronger compressions off the stagnation line.
func shockTableSpec(rhoInf, vInf float64) TableSpec {
	return TableSpec{
		RhoMin: rhoInf * 0.05, RhoMax: rhoInf * 60,
		EMin: 1e5, EMax: 2.0 * (0.5*vInf*vInf + 1e6),
		NR: 30, NE: 30,
	}
}

// gasModelFor resolves the (rho, e) EOS for NS/Euler solves: closed-form
// ideal gas, or the cached equilibrium-air table.
func gasModelFor(st *Stack, p Problem, spec func(rhoInf, vInf float64) TableSpec) (gas.Model, error) {
	switch p.Chemistry {
	case IdealGas:
		return gas.NewIdeal(p.Gamma, thermo.RAir), nil
	case EquilibriumAir:
		m, err := st.Models(EquilibriumAir)
		if err != nil {
			return nil, err
		}
		rhoInf := m.Mix.Density(p.PInf, p.TInf, m.Y0)
		return st.Table(spec(rhoInf, p.VInf))
	default:
		return nil, fmt.Errorf("core: %s class supports ideal or equilibrium air", p.Class)
	}
}

// --- VSL: stagnation-line viscous shock layer ---

type vslSolver struct{}

func (vslSolver) Name() string { return "vsl" }

func (vslSolver) Solve(ctx context.Context, st *Stack, p Problem) (*Environment, error) {
	m, rad, err := equilibriumModels(st, p)
	if err != nil {
		return nil, err
	}
	r, err := vsl.Solve(ctx, vsl.Inputs{
		Mix: m.Mix, Eq: m.Eq, Tr: m.Tr, Rad: rad, Y0: m.Y0,
		PInf: p.PInf, TInf: p.TInf, VInf: p.VInf,
		Rn: p.NoseRadius, TWall: p.TWall, NPts: p.NStations,
		Progress: phaseProgress(p, "vsl"),
	})
	if err != nil {
		return nil, err
	}
	return &Environment{
		Class: VSL, QConvStag: r.QConv, QRadStag: r.QRad, Standoff: r.Standoff,
		Description: fmt.Sprintf("VSL stagnation line, %s", m.Mix.Species[0].Name),
		Raw:         r,
	}, nil
}

// --- EBL: Euler (Newtonian) + boundary layer ---

type eblSolver struct{}

func (eblSolver) Name() string { return "ebl" }

func (eblSolver) Solve(ctx context.Context, st *Stack, p Problem) (*Environment, error) {
	m, _, err := equilibriumModels(st, p)
	if err != nil {
		return nil, err
	}
	fs := blayer.FreeStream{P: p.PInf, T: p.TInf, V: p.VInf,
		Rho: m.Mix.Density(p.PInf, p.TInf, m.Y0)}
	in, err := blayer.StagnationFromFreestream(m.Eq, m.Y0, fs, p.TWall, p.NoseRadius)
	if err != nil {
		return nil, err
	}
	// Station-level progress: the per-station equilibrium expansions are the
	// bulk of an E+BL solve, so Run snapshots show live stations like the
	// marching classes do.
	edges, err := blayer.EdgeDistribution(m.Eq, m.Tr, m.Y0, in.Edge, fs, p.Body, stations(p),
		countProgress(p, "ebl", "stations"))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sol, err := blayer.SolveStagnation(m.Mix, m.Tr, in.Edge, p.TWall, p.PInf, p.NoseRadius, p.GammaW)
	if err != nil {
		return nil, err
	}
	lees := blayer.LeesDistribution(edges, p.NoseRadius, p.PInf)
	env := &Environment{Class: EBL, QConvStag: sol.QWall,
		Description: "Euler(Newtonian)+BL with catalytic wall"}
	for i, e := range edges {
		env.Surface = append(env.Surface, SurfacePoint{S: e.S, Q: sol.QWall * lees[i], P: e.P})
	}
	return env, nil
}

// --- PNS: parabolized space march ---

type pnsSolver struct{}

func (pnsSolver) Name() string { return "pns" }

func (pnsSolver) Solve(ctx context.Context, st *Stack, p Problem) (*Environment, error) {
	var (
		edges []blayer.EdgeState
		props pns.Props
		hw    float64
		err   error
	)
	switch p.Chemistry {
	case IdealGas:
		const R = thermo.RAir
		fs := blayer.FreeStream{P: p.PInf, T: p.TInf, V: p.VInf,
			Rho: p.PInf / (R * p.TInf)}
		edges, err = pns.IdealEdgeDistribution(p.Gamma, R, fs, p.Body, stations(p),
			countProgress(p, "pns", "edges"))
		if err != nil {
			return nil, err
		}
		props = pns.IdealProps(p.Gamma, R)
		hw = p.Gamma * R / (p.Gamma - 1) * p.TWall
	default:
		m, _, err2 := equilibriumModels(st, p)
		if err2 != nil {
			return nil, err2
		}
		fs := blayer.FreeStream{P: p.PInf, T: p.TInf, V: p.VInf,
			Rho: m.Mix.Density(p.PInf, p.TInf, m.Y0)}
		stag, err2 := shock.StagnationEquilibrium(m.Eq, m.Y0, p.PInf, p.TInf, p.VInf)
		if err2 != nil {
			return nil, err2
		}
		// The per-station equilibrium expansions are the bulk of the setup;
		// report them as their own phase so the march doesn't appear hung.
		edges, err = blayer.EdgeDistribution(m.Eq, m.Tr, m.Y0, stag, fs, p.Body, stations(p),
			countProgress(p, "pns", "edges"))
		if err != nil {
			return nil, err
		}
		props = pns.EquilibriumProps(m.Eq, m.Tr, m.Y0)
		hw, err = pns.WallEnthalpyEquilibrium(m.Eq, m.Y0, edges[0].P, p.TWall)
		if err != nil {
			return nil, err
		}
	}
	res, err := pns.March(ctx, edges, props, hw, edges[0].H, p.NoseRadius, p.PInf, countProgress(p, "pns", "march"))
	if err != nil {
		return nil, err
	}
	env := &Environment{Class: PNS, QConvStag: res[0].Q,
		Description: fmt.Sprintf("PNS space march on the windward equivalent body (%s)", p.Chemistry)}
	for _, r := range res {
		env.Surface = append(env.Surface, SurfacePoint{S: r.S, Q: r.Q, P: r.Edge.P})
	}
	return env, nil
}

// --- NS: thin-layer Navier-Stokes ---

type nsSolver struct{}

func (nsSolver) Name() string { return "ns" }

func (nsSolver) Solve(ctx context.Context, st *Stack, p Problem) (*Environment, error) {
	model, err := gasModelFor(st, p, nsTableSpec)
	if err != nil {
		return nil, err
	}
	r, err := ns.Solve(ctx, ns.Case{
		Gas: model, Rn: p.NoseRadius,
		NI: p.NI, NJ: p.NJ,
		VInf: p.VInf, PInf: p.PInf, TInf: p.TInf,
		TWall: p.TWall, MaxSteps: p.MaxSteps,
		Mu: p.Mu, K: p.K,
		Options:  fvmOptions(st, p, "ns"),
		Sequence: sequenceFor(p),
	})
	if err != nil {
		return nil, err
	}
	env := &Environment{Class: NS, QConvStag: r.QWall[0],
		Description: "thin-layer NS, axisymmetric hemisphere",
		Raw:         r,
	}
	for i := range r.QWall {
		q := r.Solver.Primitive(i, 0)
		env.Surface = append(env.Surface, SurfacePoint{S: r.S[i], Q: r.QWall[i], P: q.P})
	}
	// Stagnation standoff from the shock locus.
	xs, ysl := r.Solver.ShockLocus(2.5)
	env.Standoff = math.Hypot(xs[0]-r.Grid.X[0][0], ysl[0]-r.Grid.Y[0][0])
	return env, nil
}

// ShockShapeWith computes an Euler bow-shock envelope (the Fig. 4
// machinery) against the given stack: ideal or equilibrium air, with the
// EOS table cached per freestream condition.
func ShockShapeWith(ctx context.Context, st *Stack, p Problem) (*ShockEnvelope, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	model, err := gasModelFor(st, p, shockTableSpec)
	if err != nil {
		return nil, fmt.Errorf("core: shock shape: %w", err)
	}
	res, err := euler.Solve(ctx, euler.Case{
		Gas: model, Body: p.Body,
		NI: p.NI, NJ: p.NJ,
		VInf: p.VInf, PInf: p.PInf, TInf: p.TInf,
		MaxSteps: p.MaxSteps,
		Standoff: p.Standoff,
		Options:  fvmOptions(st, p, "euler"),
		Sequence: sequenceFor(p),
	})
	if err != nil {
		return nil, err
	}
	return &ShockEnvelope{
		X: res.ShockX, Y: res.ShockY,
		BodyX: res.BodyX, BodyY: res.BodyY,
		Standoff: res.Standoff,
	}, nil
}
