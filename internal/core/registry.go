package core

import (
	"context"
	"fmt"
)

// Solver is one member of the equation-set hierarchy: it consumes a
// normalized Problem, pulls whatever models it needs from the shared Stack,
// and produces an aerothermal-environment report.
type Solver interface {
	// Name is a short identifier for reports.
	Name() string
	// Solve runs the problem. The context is threaded into the solver's
	// iteration loops; cancellation aborts with ctx.Err().
	Solve(ctx context.Context, st *Stack, p Problem) (*Environment, error)
}

// solvers maps each of the paper's four equation sets to its solver; the
// dispatcher in SolveWith resolves classes through it, and its keys match
// the case-file classNames.
var solvers = map[SolverClass]Solver{
	VSL: vslSolver{},
	EBL: eblSolver{},
	PNS: pnsSolver{},
	NS:  nsSolver{},
}

// Lookup returns the solver for a class.
func Lookup(class SolverClass) (Solver, error) {
	s, ok := solvers[class]
	if !ok {
		return nil, fmt.Errorf("core: no solver for class %d (%s)", class, class)
	}
	return s, nil
}
