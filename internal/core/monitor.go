package core

// Progress is one live observation of a running solve: which solver class
// is executing, which phase of its schedule it is in, how far along it is
// and the latest residual when the class computes one. The paper's workflow
// is long solver campaigns watched by engineers — residual histories and
// step counts are first-class artifacts, so every iteration loop in the
// hierarchy reports them through this type.
type Progress struct {
	// Class is the problem's solver class. Shock-shape solves do not
	// dispatch on Class; identify them by Solver ("euler") instead.
	Class SolverClass
	// Solver is the name of the executing solver ("vsl", "ebl",
	// "pns", "ns", "euler" for shock-shape solves).
	Solver string
	// Phase names the stage of the solver's schedule: "solve" for a plain
	// finite-volume march, "level0" (finest) through "levelN" (coarsest) for
	// the grid-sequencing levels, "march" for the PNS station march,
	// "profile" for the VSL stagnation-line profile, "stations" for the EBL
	// edge distribution.
	Phase string
	// Step counts completed iterations within the phase: time steps for
	// the finite-volume classes, stations for PNS, profile points for VSL.
	Step int
	// MaxSteps is the phase's iteration budget (0 when open-ended).
	MaxSteps int
	// Residual is the latest RMS density residual for the finite-volume
	// classes; 0 for classes that do not compute one.
	Residual float64
	// Fallbacks counts implicit-integrator divergence recoveries (line
	// solves that fell back to an explicit update after the CFL ramp
	// overshot); 0 for the explicit integrator and non-FVM classes.
	Fallbacks int
	// Refits counts mid-march shock refits completed so far (multilevel
	// solves with RefitEvery); 0 otherwise.
	Refits int
	// Restarts counts checkpoint restores this solve chain has been through
	// (1 for the first resumed run, 0 for a cold solve).
	Restarts int
}

// Monitor observes the progress of a solve. Callbacks run on the solving
// goroutine after every iteration, so implementations must be cheap and
// must not call back into the solve. The session layer's Run handles are
// Monitors; a Problem may also carry its own.
type Monitor interface {
	OnProgress(Progress)
}

// MonitorFunc adapts a function to the Monitor interface.
type MonitorFunc func(Progress)

// OnProgress implements Monitor.
func (f MonitorFunc) OnProgress(p Progress) { f(p) }
