package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cataero/internal/chem"
	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/radiation"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// Models bundles the shared real-gas substrate for one chemistry: the
// thermodynamic mixture, the Gibbs equilibrium solver, the transport
// closure and the freestream composition. All four are safe for concurrent
// use, so one Models value can back many simultaneous solves.
type Models struct {
	Mix *thermo.Mixture
	Eq  *chem.EquilibriumSolver
	Tr  *transport.Mixture
	Y0  []float64
}

// TableSpec keys one tabulated equilibrium EOS: the (rho, e) rectangle and
// node counts passed to gas.NewTable. Specs derived from the same problem
// parameters are identical, so repeated solves share one table.
type TableSpec struct {
	RhoMin, RhoMax float64
	EMin, EMax     float64
	NR, NE         int
}

type modelsEntry struct {
	once sync.Once
	m    *Models
	err  error
}

type radEntry struct {
	once sync.Once
	rad  *radiation.Model
	err  error
}

type tableEntry struct {
	once sync.Once
	tab  *gas.Table
	err  error
}

// Stack owns the lazily-built, cached model stacks shared by every solver
// class: one Models set per chemistry (built under sync.Once), the
// radiation models, the exact equilibrium-air EOS and a keyed cache of
// tabulated EOS tables. A Stack is safe for concurrent use; sessions hold
// one and hand it to each solve so repeated and batched solves stop paying
// the model-construction cost.
type Stack struct {
	mu     sync.Mutex
	models map[GasChemistry]*modelsEntry
	rads   map[GasChemistry]*radEntry
	tables map[TableSpec]*tableEntry

	eqAirOnce sync.Once
	eqAir     *gas.Equilibrium

	poolOnce sync.Once
	pool     *fvm.Pool

	tableBuilds atomic.Int64
}

// NewStack returns an empty stack; all models build lazily on first use.
func NewStack() *Stack {
	return &Stack{
		models: map[GasChemistry]*modelsEntry{},
		rads:   map[GasChemistry]*radEntry{},
		tables: map[TableSpec]*tableEntry{},
	}
}

// Models returns the cached model set for the chemistry, building it on
// first use. Ideal gas has no model stack (the solvers that accept it use
// closed-form properties) and unset chemistry has nothing to build; both
// return an error.
func (st *Stack) Models(c GasChemistry) (*Models, error) {
	switch c {
	case EquilibriumAir, EquilibriumTitan:
	default:
		return nil, fmt.Errorf("core: chemistry %s has no equilibrium model stack", c)
	}
	st.mu.Lock()
	e, ok := st.models[c]
	if !ok {
		e = &modelsEntry{}
		st.models[c] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		var m *thermo.Mixture
		var y0 []float64
		switch c {
		case EquilibriumAir:
			m = thermo.NewMixture(thermo.AirSpecies11())
			y0 = thermo.AirFreestreamMassFractions(m.Species)
		case EquilibriumTitan:
			m = thermo.NewMixture(thermo.TitanSpecies())
			y0 = thermo.TitanFreestreamMassFractions(m.Species)
		}
		e.m = &Models{
			Mix: m,
			Eq:  chem.NewEquilibriumSolver(m),
			Tr:  transport.NewMixture(m),
			Y0:  y0,
		}
	})
	return e.m, e.err
}

// Radiation returns the cached tangent-slab radiation model for the
// chemistry, building it (and the underlying model set) on first use.
func (st *Stack) Radiation(c GasChemistry) (*radiation.Model, error) {
	m, err := st.Models(c)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	e, ok := st.rads[c]
	if !ok {
		e = &radEntry{}
		st.rads[c] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		switch c {
		case EquilibriumAir:
			e.rad = radiation.NewAirModel(m.Mix, 300)
		case EquilibriumTitan:
			e.rad = radiation.NewTitanModel(m.Mix, 300)
		}
	})
	return e.rad, e.err
}

// EquilibriumAirGas returns the cached exact equilibrium-air EOS (the table
// base model).
func (st *Stack) EquilibriumAirGas() *gas.Equilibrium {
	st.eqAirOnce.Do(func() { st.eqAir = gas.NewEquilibriumAir() })
	return st.eqAir
}

// Table returns the cached equilibrium-air EOS table for the spec, building
// it on first use. Identical specs — e.g. repeated solves of the same
// problem through one session — share one table and pay the sampling cost
// exactly once.
func (st *Stack) Table(spec TableSpec) (*gas.Table, error) {
	st.mu.Lock()
	e, ok := st.tables[spec]
	if !ok {
		e = &tableEntry{}
		st.tables[spec] = e
	}
	st.mu.Unlock()
	e.once.Do(func() {
		st.tableBuilds.Add(1)
		e.tab, e.err = gas.NewTable(st.EquilibriumAirGas(),
			spec.RhoMin, spec.RhoMax, spec.EMin, spec.EMax, spec.NR, spec.NE)
	})
	return e.tab, e.err
}

// TableBuilds reports how many EOS tables this stack has actually sampled —
// the cache-effectiveness counter asserted by tests and benchmarks.
func (st *Stack) TableBuilds() int { return int(st.tableBuilds.Load()) }

// Pool returns the stack's shared finite-volume worker pool, building it
// GOMAXPROCS-sized on first use. Every NS and Euler solve through this
// stack shares it, so concurrent batch solves keep a fixed resident worker
// count instead of spawning a private pool per solver (the per-solver pools
// oversubscribed the CPUs under SolveBatch). The pool reclaims itself by
// finalizer when the stack is dropped.
func (st *Stack) Pool() *fvm.Pool {
	st.poolOnce.Do(func() { st.pool = fvm.NewPool(0) })
	return st.pool
}
