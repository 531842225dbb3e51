package core

import (
	"encoding/json"
	"fmt"
	"math"

	"cataero/internal/fvm"
	"cataero/internal/geometry"
)

// CaseSpec is the declarative, JSON-marshalable mirror of a Problem: the
// case-file format of the toolkit. Enumerations are spelled as strings and
// the geometry.Body interface stands behind a named BodySpec, so a spec
// round-trips through JSON and back into an equivalent Problem. Fields a
// Problem carries as functions (Standoff, Mu, K) or live callbacks
// (Monitor) have no declarative form and are dropped by SpecOf.
type CaseSpec struct {
	// Name is an optional label for reports; it does not affect the solve.
	Name      string  `json:"name,omitempty"`
	Class     string  `json:"class"`
	Chemistry string  `json:"chemistry,omitempty"`
	Gamma     float64 `json:"gamma,omitempty"`

	PInf float64 `json:"p_inf"`
	TInf float64 `json:"t_inf"`
	VInf float64 `json:"v_inf"`

	Body       *BodySpec `json:"body,omitempty"`
	NoseRadius float64   `json:"nose_radius,omitempty"`

	TWall  float64 `json:"t_wall,omitempty"`
	GammaW float64 `json:"gamma_w,omitempty"`

	Radiation bool `json:"radiation,omitempty"`

	NStations int `json:"n_stations,omitempty"`
	NI        int `json:"ni,omitempty"`
	NJ        int `json:"nj,omitempty"`
	MaxSteps  int `json:"max_steps,omitempty"`

	Flux string `json:"flux,omitempty"`
	// TimeStepping is the finite-volume time integrator name ("explicit",
	// "implicit"); empty defers to the session or solver default.
	TimeStepping string `json:"time_stepping,omitempty"`
	// ImplicitSweep is the implicit sweep-pattern name ("jline", "adi");
	// empty defers to the session or solver default.
	ImplicitSweep string `json:"implicit_sweep,omitempty"`
	// CFLRamp tunes the implicit integrator's CFL schedule; omitted fields
	// take the solver defaults.
	CFLRamp *CFLRampSpec `json:"cfl_ramp,omitempty"`
	// Limiter is the MUSCL slope-limiter name ("minmod", "vanalbada");
	// empty defers to the session or solver default.
	Limiter string `json:"limiter,omitempty"`
	// FreezeLimiterAt freezes the MUSCL limiter once the residual has
	// dropped by this factor (must be in (0, 1); 0 = off / session default).
	FreezeLimiterAt float64 `json:"freeze_limiter_at,omitempty"`
	// GridSequencing is "" (session default), "on" or "off".
	GridSequencing string `json:"grid_sequencing,omitempty"`
	// Levels is the multilevel grid-level count (0 = session default; 2 =
	// two-level cascade; >= 3 = deeper hierarchy). Setting it (or Cycle, or
	// RefitEvery) turns sequencing on unless grid_sequencing is "off".
	Levels int `json:"levels,omitempty"`
	// Cycle is the multilevel schedule name: "" or "cascade", the only
	// schedule (any other name is an error).
	Cycle string `json:"cycle,omitempty"`
	// RefitEvery re-fits the outer boundary to the detected shock locus
	// every RefitEvery finest-level steps mid-march (0 = off).
	RefitEvery int `json:"refit_every,omitempty"`
	// CheckpointEvery emits a solver-state checkpoint every CheckpointEvery
	// steps (0 = off / session default). Cleared by canonicalization: it
	// never perturbs a case's ledger key.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
}

// CFLRampSpec is the case-file form of the implicit integrator's CFL
// schedule (fvm.CFLRamp): initial CFL, geometric per-step growth factor and
// cap. Zero-valued fields take the solver defaults.
type CFLRampSpec struct {
	Start  float64 `json:"start,omitempty"`
	Growth float64 `json:"growth,omitempty"`
	Max    float64 `json:"max,omitempty"`
}

// BodySpec names a body shape declaratively: a kind from the geometry
// package plus its dimensions. Angles are in degrees (case files are written
// by hand).
type BodySpec struct {
	// Kind is "sphere", "sphere-cone" or "hyperboloid".
	Kind string `json:"kind"`
	// NoseRadius is the stagnation-point radius of curvature, m.
	NoseRadius float64 `json:"nose_radius"`
	// HalfAngleDeg is the cone half angle or hyperboloid asymptotic half
	// angle, degrees.
	HalfAngleDeg float64 `json:"half_angle_deg,omitempty"`
	// BaseRadius is the sphere-cone base radius, m.
	BaseRadius float64 `json:"base_radius,omitempty"`
	// MaxS is the hyperboloid arc-length extent, m.
	MaxS float64 `json:"max_s,omitempty"`
}

// Body instantiates the named shape.
func (b BodySpec) Body() (geometry.Body, error) {
	if b.NoseRadius <= 0 {
		return nil, fmt.Errorf("core: body %q needs a positive nose_radius", b.Kind)
	}
	switch b.Kind {
	case "sphere":
		return geometry.NewSphere(b.NoseRadius), nil
	case "sphere-cone":
		if b.HalfAngleDeg <= 0 || b.BaseRadius <= 0 {
			return nil, fmt.Errorf("core: sphere-cone needs half_angle_deg and base_radius")
		}
		return geometry.NewSphereCone(b.NoseRadius, b.HalfAngleDeg*math.Pi/180, b.BaseRadius), nil
	case "hyperboloid":
		if b.HalfAngleDeg <= 0 || b.MaxS <= 0 {
			return nil, fmt.Errorf("core: hyperboloid needs half_angle_deg and max_s")
		}
		return geometry.NewHyperboloid(b.NoseRadius, b.HalfAngleDeg*math.Pi/180, b.MaxS), nil
	}
	return nil, fmt.Errorf("core: unknown body kind %q (want sphere, sphere-cone or hyperboloid)", b.Kind)
}

// bodySpecOf maps a concrete geometry type back to its named spec.
func bodySpecOf(body geometry.Body) (*BodySpec, error) {
	switch b := body.(type) {
	case nil:
		return nil, nil
	case *geometry.Sphere:
		return &BodySpec{Kind: "sphere", NoseRadius: b.R}, nil
	case *geometry.SphereCone:
		return &BodySpec{Kind: "sphere-cone", NoseRadius: b.Rn,
			HalfAngleDeg: b.ThetaC * 180 / math.Pi, BaseRadius: b.Rb}, nil
	case *geometry.Hyperboloid:
		return &BodySpec{Kind: "hyperboloid", NoseRadius: b.Rn,
			HalfAngleDeg: b.ThetaA * 180 / math.Pi, MaxS: b.MaxS()}, nil
	}
	return nil, fmt.Errorf("core: body %T has no case-file representation", body)
}

// class name table, matching the solver registry names.
var classNames = map[SolverClass]string{VSL: "vsl", EBL: "ebl", PNS: "pns", NS: "ns"}

// ParseClass resolves a case-file class name ("vsl", "ebl", "pns", "ns").
func ParseClass(name string) (SolverClass, error) {
	for c, n := range classNames {
		if n == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: unknown solver class %q (want vsl, ebl, pns or ns)", name)
}

// chemistry name table for case files.
var chemistryNames = map[GasChemistry]string{
	IdealGas:         "ideal",
	EquilibriumAir:   "equilibrium-air",
	EquilibriumTitan: "equilibrium-titan",
}

// ParseChemistry resolves a case-file chemistry name; the empty string is
// ChemistryUnset (session default).
func ParseChemistry(name string) (GasChemistry, error) {
	if name == "" {
		return ChemistryUnset, nil
	}
	for c, n := range chemistryNames {
		if n == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("core: unknown chemistry %q (want ideal, equilibrium-air or equilibrium-titan)", name)
}

func parseToggle(s string) (Toggle, error) {
	switch s {
	case "":
		return ToggleDefault, nil
	case "on":
		return ToggleOn, nil
	case "off":
		return ToggleOff, nil
	}
	return 0, fmt.Errorf("core: grid_sequencing %q (want \"on\", \"off\" or omitted)", s)
}

func toggleName(t Toggle) string {
	switch t {
	case ToggleOn:
		return "on"
	case ToggleOff:
		return "off"
	}
	return ""
}

// SpecOf converts a Problem to its declarative case spec. Function-valued
// fields (Standoff, Mu, K) and the Monitor are dropped — they have no
// serialized form; a Body with no named shape is an error.
func SpecOf(p Problem) (CaseSpec, error) {
	body, err := bodySpecOf(p.Body)
	if err != nil {
		return CaseSpec{}, err
	}
	class, ok := classNames[p.Class]
	if !ok {
		return CaseSpec{}, fmt.Errorf("core: solver class %d has no case-file name", p.Class)
	}
	chem := ""
	if p.Chemistry != ChemistryUnset {
		if chem, ok = chemistryNames[p.Chemistry]; !ok {
			return CaseSpec{}, fmt.Errorf("core: chemistry %d has no case-file name", p.Chemistry)
		}
	}
	var ramp *CFLRampSpec
	if p.CFLRamp != (fvm.CFLRamp{}) {
		ramp = &CFLRampSpec{Start: p.CFLRamp.Start, Growth: p.CFLRamp.Growth, Max: p.CFLRamp.Max}
	}
	return CaseSpec{
		Name:      p.Name,
		Class:     class,
		Chemistry: chem,
		Gamma:     p.Gamma,
		PInf:      p.PInf, TInf: p.TInf, VInf: p.VInf,
		Body: body, NoseRadius: p.NoseRadius,
		TWall: p.TWall, GammaW: p.GammaW,
		Radiation: p.Radiation,
		NStations: p.NStations, NI: p.NI, NJ: p.NJ, MaxSteps: p.MaxSteps,
		Flux:            p.Flux,
		TimeStepping:    p.TimeStepping,
		ImplicitSweep:   p.ImplicitSweep,
		CFLRamp:         ramp,
		Limiter:         p.Limiter,
		FreezeLimiterAt: p.FreezeLimiterAt,
		GridSequencing:  toggleName(p.GridSequencing),
		Levels:          p.Levels,
		Cycle:           p.Cycle,
		RefitEvery:      p.RefitEvery,
		CheckpointEvery: p.CheckpointEvery,
	}, nil
}

// Problem instantiates the spec: names resolve through the class and
// chemistry tables, the body spec through the geometry package.
func (c CaseSpec) Problem() (Problem, error) {
	class, err := ParseClass(c.Class)
	if err != nil {
		return Problem{}, err
	}
	chem, err := ParseChemistry(c.Chemistry)
	if err != nil {
		return Problem{}, err
	}
	seq, err := parseToggle(c.GridSequencing)
	if err != nil {
		return Problem{}, err
	}
	if c.Levels < 0 {
		return Problem{}, fmt.Errorf("core: levels %d negative", c.Levels)
	}
	if err := validateCycle(c.Cycle); err != nil {
		return Problem{}, err
	}
	if c.RefitEvery < 0 {
		return Problem{}, fmt.Errorf("core: refit_every %d negative", c.RefitEvery)
	}
	if c.CheckpointEvery < 0 {
		return Problem{}, fmt.Errorf("core: checkpoint_every %d negative", c.CheckpointEvery)
	}
	if c.FreezeLimiterAt < 0 || c.FreezeLimiterAt >= 1 {
		return Problem{}, fmt.Errorf("core: freeze_limiter_at %g outside [0, 1)", c.FreezeLimiterAt)
	}
	p := Problem{
		Name:      c.Name,
		Class:     class,
		Chemistry: chem,
		Gamma:     c.Gamma,
		PInf:      c.PInf, TInf: c.TInf, VInf: c.VInf,
		NoseRadius: c.NoseRadius,
		TWall:      c.TWall, GammaW: c.GammaW,
		Radiation: c.Radiation,
		NStations: c.NStations, NI: c.NI, NJ: c.NJ, MaxSteps: c.MaxSteps,
		Flux:            c.Flux,
		TimeStepping:    c.TimeStepping,
		ImplicitSweep:   c.ImplicitSweep,
		Limiter:         c.Limiter,
		FreezeLimiterAt: c.FreezeLimiterAt,
		GridSequencing:  seq,
		Levels:          c.Levels,
		Cycle:           c.Cycle,
		RefitEvery:      c.RefitEvery,
		CheckpointEvery: c.CheckpointEvery,
	}
	if c.CFLRamp != nil {
		p.CFLRamp = fvm.CFLRamp{Start: c.CFLRamp.Start, Growth: c.CFLRamp.Growth, Max: c.CFLRamp.Max}
	}
	if c.Body != nil {
		if p.Body, err = c.Body.Body(); err != nil {
			return Problem{}, err
		}
	}
	return p, nil
}

// MarshalJSON serializes the problem as its declarative case spec, so a
// Problem built in code can be written out as a case file and reloaded.
// Function-valued fields and the Monitor are dropped; a Body that is not a
// named geometry shape is an error.
func (p Problem) MarshalJSON() ([]byte, error) {
	spec, err := SpecOf(p)
	if err != nil {
		return nil, err
	}
	return json.Marshal(spec)
}

// UnmarshalJSON parses a case-file spec into the problem.
func (p *Problem) UnmarshalJSON(data []byte) error {
	var spec CaseSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return err
	}
	q, err := spec.Problem()
	if err != nil {
		return err
	}
	*p = q
	return nil
}
