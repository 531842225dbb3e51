// Package core is the computational-aerothermodynamics framework of the
// paper: a single problem specification dispatched to a table of solver
// classes (VSL, E+BL, PNS, NS) over a shared, cached real-gas model stack,
// producing an aerothermal-environment report (convective and radiative
// heating, shock standoff, surface distributions). This synthesis layer —
// CFD solver hierarchy + high-temperature gas physics + (then-) modern
// computers — is the paper's central contribution.
//
// The architecture has three pieces:
//
//   - Problem/Environment: the case specification and report (this file).
//   - Stack (stack.go): lazily-built, cached model stacks — one per
//     chemistry — plus a keyed cache of tabulated EOS tables, shared by
//     every solve that goes through the same stack.
//   - Solver table (registry.go, solvers.go): the dispatcher resolves each
//     class to its equation set through one static map.
//
// SolveWith/ShockShapeWith are the entry points: each takes an explicit
// context and stack (the root package's Session holds the stack).
package core

import (
	"context"
	"fmt"

	"cataero/internal/fvm"
	"cataero/internal/geometry"
	"cataero/internal/thermo"
)

// SolverClass selects one of the paper's four equation sets.
type SolverClass int

const (
	// VSL is the viscous-shock-layer class (stagnation-line solution with
	// radiation coupling): the HYVIS/RASLE/COLTS lineage.
	VSL SolverClass = iota
	// EBL is the Euler + boundary-layer class (edge distribution from the
	// inviscid solution, heating from similarity/local-similarity).
	EBL
	// PNS is the parabolized space-marching class.
	PNS
	// NS is the full (thin-layer) Navier-Stokes class.
	NS
)

func (c SolverClass) String() string {
	switch c {
	case VSL:
		return "viscous shock layer"
	case EBL:
		return "Euler + boundary layer"
	case PNS:
		return "parabolized Navier-Stokes"
	case NS:
		return "Navier-Stokes"
	}
	return "unknown"
}

// GasChemistry selects the real-gas treatment.
type GasChemistry int

const (
	// ChemistryUnset lets the session (or the legacy ideal-gas default)
	// choose the chemistry.
	ChemistryUnset GasChemistry = iota
	IdealGas
	EquilibriumAir
	EquilibriumTitan
)

func (c GasChemistry) String() string {
	switch c {
	case ChemistryUnset:
		return "unset"
	case IdealGas:
		return "ideal gas"
	case EquilibriumAir:
		return "equilibrium air"
	case EquilibriumTitan:
		return "equilibrium Titan"
	}
	return "unknown"
}

// Toggle is a tri-state switch for per-problem feature flags that have a
// session-level default: the zero value defers to the session, and a
// problem can force the feature on or off regardless of that default.
type Toggle int

const (
	// ToggleDefault defers to the session (or solver) default.
	ToggleDefault Toggle = iota
	// ToggleOn forces the feature on for this problem.
	ToggleOn
	// ToggleOff forces the feature off, overriding a session that enables
	// it by default.
	ToggleOff
)

func (t Toggle) String() string {
	switch t {
	case ToggleDefault:
		return "default"
	case ToggleOn:
		return "on"
	case ToggleOff:
		return "off"
	}
	return "unknown"
}

// Enabled resolves the toggle against a default.
func (t Toggle) Enabled(def bool) bool {
	switch t {
	case ToggleOn:
		return true
	case ToggleOff:
		return false
	}
	return def
}

// Priority is a problem's admission lane in the session queue: a freed
// solve slot goes to the oldest waiting run in the highest non-empty lane.
// The zero value is PriorityNormal; a value above PriorityHigh or below
// PriorityLow queues in the nearest lane.
type Priority int

const (
	PriorityLow Priority = iota - 1
	PriorityNormal
	PriorityHigh
)

// String names the lane the priority queues in: "low", "normal" or "high".
func (p Priority) String() string {
	switch {
	case p < PriorityNormal:
		return "low"
	case p > PriorityNormal:
		return "high"
	}
	return "normal"
}

// Problem is a complete aerothermal case specification, and its JSON
// encoding is the case-file format (case.go): the json tags name the
// case-file keys, enumerations are spelled by name, and the Body stands
// behind a named BodySpec. Runtime-only fields (functions, checkpoints, the
// Monitor, the Priority) are tagged "-" and have no case-file form.
type Problem struct {
	// Name is an optional case label for reports and case files; it does
	// not affect the solve.
	Name string `json:"name,omitempty"`

	Class     SolverClass  `json:"class"`
	Chemistry GasChemistry `json:"chemistry,omitempty"`
	Gamma     float64      `json:"gamma,omitempty"` // ideal-gas gamma (default 1.4)

	// Freestream.
	PInf float64 `json:"p_inf"`
	TInf float64 `json:"t_inf"`
	VInf float64 `json:"v_inf"`

	// Geometry: either an explicit body or a nose radius for a sphere. A
	// case file spells the body as a BodySpec ("body").
	Body       geometry.Body `json:"-"`
	NoseRadius float64       `json:"nose_radius,omitempty"`

	// Wall.
	TWall  float64 `json:"t_wall,omitempty"`
	GammaW float64 `json:"gamma_w,omitempty"` // catalytic recombination coefficient (EBL class)

	// Radiation coupling (VSL class).
	Radiation bool `json:"radiation,omitempty"`

	// Discretization hints.
	NStations int `json:"n_stations,omitempty"` // surface stations (EBL/PNS, default 20); VSL profile points (default 60)
	NI        int `json:"ni,omitempty"`         // grid cells (NS)
	NJ        int `json:"nj,omitempty"`
	MaxSteps  int `json:"max_steps,omitempty"`

	// Flux selects the finite-volume upwind flux kernel by name for the
	// NS and Euler shock-shape classes ("hlle", "hllc", "ausm+"; empty =
	// solver default).
	Flux string `json:"flux,omitempty"`

	// TimeStepping selects the finite-volume time integrator by name for
	// the NS and Euler shock-shape classes ("explicit", "implicit"; empty =
	// session or solver default). Implicit (line-implicit, DPLR-style)
	// stepping removes the wall-normal CFL restriction and converges
	// clustered viscous grids in several-fold fewer steps.
	TimeStepping string `json:"time_stepping,omitempty"`

	// ImplicitSweep selects the implicit line-relaxation sweep pattern for
	// the NS and Euler shock-shape classes ("jline" = wall-normal lines only,
	// "adi" = alternating wall-normal and streamwise passes; empty = solver
	// default — see the fvm.ImplicitSweeps list). Ignored by the explicit
	// integrator.
	ImplicitSweep string `json:"implicit_sweep,omitempty"`

	// Limiter selects the MUSCL slope limiter by name for the NS and Euler
	// shock-shape classes ("minmod", "vanalbada"; empty = session or solver
	// default). The smooth van Albada limiter lets the implicit CFL ramp
	// climb past the minmod limit cycle.
	Limiter string `json:"limiter,omitempty"`

	// GridSequencing controls grid-sequenced NS and Euler shock-shape
	// solves (converge on a coarsened grid, then finish on the fine grid
	// from the interpolated coarse state). The zero value defers to the
	// session default; ToggleOff disables sequencing even on a session that
	// enables it (including multilevel solves requested via Levels/Cycle).
	// A case file spells it "on", "off" or omits it.
	GridSequencing Toggle `json:"grid_sequencing,omitempty"`

	// Levels selects the number of grid levels for multilevel NS and Euler
	// shock-shape solves (fine level included): 0 defers to the session
	// default (the two-level cascade when sequencing is on), 2 the two-level
	// cascade, 3 or more a deeper hierarchy with levels the grid cannot
	// reach dropped automatically. Setting Levels (or Cycle, or RefitEvery)
	// turns sequencing on unless GridSequencing is ToggleOff.
	Levels int `json:"levels,omitempty"`

	// Cycle names the multilevel schedule. The cascade is the only one, so
	// the field is validated input only: "" or "cascade" (which, like
	// Levels, turns sequencing on). Any other name is an error. It stays
	// because stored ledger specs and case files spell it.
	Cycle string `json:"cycle,omitempty"`

	// RefitEvery, when positive, re-fits the outer boundary to the detected
	// shock locus every RefitEvery steps on the finest level mid-march,
	// transferring the solution onto the refitted grid.
	RefitEvery int `json:"refit_every,omitempty"`

	// Standoff optionally places the outer grid boundary as a function of
	// arc length (Euler shock-shape solves); nil uses the solver default.
	Standoff func(s float64) float64 `json:"-"`

	// Mu and K optionally override the NS-class transport closures (e.g.
	// equilibrium-composition viscosity/conductivity); nil uses Sutherland.
	Mu, K func(T float64) float64 `json:"-"`

	// CheckpointEvery, when positive, asks the NS and Euler shock-shape
	// classes to emit a solver-state checkpoint every CheckpointEvery steps
	// through CheckpointSink. A case file can set it, but Canonical clears
	// it, so it never perturbs a case's ledger key: a checkpointed solve and
	// a plain solve of the same case produce the same artifact.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// CheckpointSink receives each emitted checkpoint. The *fvm.Checkpoint
	// is scratch owned by the solver — encode it (Checkpoint.AppendBinary)
	// before returning. Runtime-only, like Monitor.
	CheckpointSink func(*fvm.Checkpoint) `json:"-"`

	// Restore, when non-nil, resumes the solve from a previously captured
	// checkpoint instead of a cold start. A checkpoint that does not match
	// the case (grid size, phase) is ignored and the solve starts cold:
	// restore is an optimization, never a requirement. Runtime-only.
	Restore *fvm.Checkpoint `json:"-"`

	// Monitor, when non-nil, observes the solve's iteration loops (see
	// Monitor). The session layer installs its own monitor for Run handles
	// and forwards to this one.
	Monitor Monitor `json:"-"`

	// Priority is the run's lane in the session's admission queue. It
	// orders waiting runs and never changes a solve. Runtime-only.
	Priority Priority `json:"-"`
}

// SurfacePoint is one station of a surface distribution. The JSON tags are
// the wire form used by result artifacts and the run ledger (envjson.go).
type SurfacePoint struct {
	S float64 `json:"s"` // arc length, m
	Q float64 `json:"q"` // heat flux, W/m^2
	P float64 `json:"p"` // surface pressure, Pa
}

// Environment is the aerothermal-environment report.
type Environment struct {
	Class       SolverClass
	QConvStag   float64 // stagnation convective heating, W/m^2
	QRadStag    float64 // stagnation radiative heating, W/m^2
	Standoff    float64 // shock standoff, m
	Surface     []SurfacePoint
	Description string
	// Raw optionally carries the solver-specific result (e.g. *ns.Result
	// for field post-processing); nil when the class has no richer payload.
	Raw any
}

// normalize validates the problem and fills defaults.
func normalize(p Problem) (Problem, error) {
	if err := validate(p); err != nil {
		return p, err
	}
	if p.VInf <= 0 || p.PInf <= 0 || p.TInf <= 0 {
		return p, fmt.Errorf("core: freestream required")
	}
	if p.Body == nil {
		if p.NoseRadius <= 0 {
			return p, fmt.Errorf("core: body or nose radius required")
		}
		p.Body = geometry.NewSphere(p.NoseRadius)
	}
	if p.NoseRadius == 0 {
		p.NoseRadius = p.Body.NoseRadius()
	}
	if p.Chemistry == ChemistryUnset {
		p.Chemistry = IdealGas
	}
	if p.TWall == 0 {
		p.TWall = 1200
	}
	if p.Gamma == 0 {
		p.Gamma = thermo.GammaAir
	}
	return p, nil
}

// cycleCascade is the name of the one multilevel schedule: the only value
// Problem.Cycle accepts besides empty.
const cycleCascade = "cascade"

// validate checks the finite-volume names against fvm's tables and
// range-checks the solve knobs. Case files (UnmarshalJSON) and in-code
// problems (normalize) both pass through it, so a problem no case file
// could spell never reaches a solve or a ledger key. A Cycle other than
// "cascade" names the removal, so a case written for the deleted FAS
// V-cycle fails with the reason. The NS class meshes a sphere of the nose
// radius whatever the body, so an NS problem with another body is refused:
// it would solve, and be filed in a ledger, as a hemisphere under the other
// body's key. The size bounds cap what one case can make a solve
// allocate, so a single serve request cannot exhaust the server's memory.
// An accepted problem costs no allocation: a serve request runs validate up
// to four times.
func validate(p Problem) error {
	if err := fvm.CheckNames(p.Flux, p.TimeStepping, p.ImplicitSweep, p.Limiter); err != nil {
		return err
	}
	if _, sphere := p.Body.(*geometry.Sphere); p.Class == NS && p.Body != nil && !sphere {
		return fmt.Errorf("core: the %s class meshes a sphere only; body %q is not one", classNames[NS], p.Body.Name())
	}
	switch {
	case p.NStations < 0:
		return fmt.Errorf("core: n_stations %d negative", p.NStations)
	case p.NStations > 0 && p.NStations < minStations(p.Class):
		return fmt.Errorf("core: n_stations %d below the %s minimum of %d", p.NStations, classNames[p.Class], minStations(p.Class))
	case p.NStations > maxStations:
		return fmt.Errorf("core: n_stations %d above the limit of %d", p.NStations, maxStations)
	case p.NI < 0:
		return fmt.Errorf("core: ni %d negative", p.NI)
	case p.NJ < 0:
		return fmt.Errorf("core: nj %d negative", p.NJ)
	case p.NI > maxGridDim:
		return fmt.Errorf("core: ni %d above the limit of %d", p.NI, maxGridDim)
	case p.NJ > maxGridDim:
		return fmt.Errorf("core: nj %d above the limit of %d", p.NJ, maxGridDim)
	case p.NI*p.NJ > maxCells:
		return fmt.Errorf("core: ni x nj = %d cells above the limit of %d", p.NI*p.NJ, maxCells)
	case p.MaxSteps < 0:
		return fmt.Errorf("core: max_steps %d negative", p.MaxSteps)
	case p.Levels < 0:
		return fmt.Errorf("core: levels %d negative", p.Levels)
	case p.Cycle != "" && p.Cycle != cycleCascade:
		return fmt.Errorf("core: cycle %q: the multilevel cycle choice was removed along with the FAS V-cycle; the cascade is the only schedule (use %q or omit the field)", p.Cycle, cycleCascade)
	case p.RefitEvery < 0:
		return fmt.Errorf("core: refit_every %d negative", p.RefitEvery)
	case p.CheckpointEvery < 0:
		return fmt.Errorf("core: checkpoint_every %d negative", p.CheckpointEvery)
	}
	return nil
}

// The size bounds of one case. An implicit NS level holds about 390 B per
// cell, so maxCells caps a level near 25 MB. Each grid dimension is bounded
// before the product, which could otherwise overflow; at maxGridDim a grid
// whose other dimension is left at its default (at most 36 cells) still
// stays inside maxCells. maxStations sizes the VSL, E+BL and PNS arrays the
// same way.
const (
	maxCells    = 65536
	maxGridDim  = 1024
	maxStations = 1000
)

// minStations is the fewest surface stations a class can solve on: E+BL
// spaces its edge distribution over at least two (one spaces the body by
// 0/0), and the PNS march needs three. The other classes set no minimum.
func minStations(c SolverClass) int {
	switch c {
	case EBL:
		return 2
	case PNS:
		return 3
	}
	return 0
}

// stations resolves the surface-station count for the EBL/PNS classes.
// (The zero value stays zero through normalize so the VSL class can keep
// its own, finer profile default.)
func stations(p Problem) int {
	if p.NStations > 0 {
		return p.NStations
	}
	return 20
}

// SolveWith dispatches the problem through the solver table against the
// given model stack. This is the session entry point: the stack's caches
// make repeated and batched solves cheap, and the context is threaded into
// the solver iteration loops.
func SolveWith(ctx context.Context, st *Stack, p Problem) (*Environment, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p, err := normalize(p)
	if err != nil {
		return nil, err
	}
	s, err := Lookup(p.Class)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, st, p)
}

// ShockEnvelope is the result of an Euler bow-shock solve: the shock locus,
// the wall nodes it envelopes, and the stagnation-line standoff.
type ShockEnvelope struct {
	X, Y         []float64 // bow-shock locus
	BodyX, BodyY []float64 // wall nodes for reference
	Standoff     float64   // stagnation-line standoff, m
}
