package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"cataero/internal/geometry"
)

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

// namedBody maps a concrete geometry type back to its named spec.
func namedBody(body geometry.Body) (*BodySpec, error) {
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

// The case-file name tables, inverted by parseName. classNames has the keys
// of the solvers table.
var (
	classNames = map[SolverClass]string{VSL: "vsl", EBL: "ebl", PNS: "pns", NS: "ns"}

	chemistryNames = map[GasChemistry]string{
		ChemistryUnset:   "",
		IdealGas:         "ideal",
		EquilibriumAir:   "equilibrium-air",
		EquilibriumTitan: "equilibrium-titan",
	}

	onOffNames = map[Toggle]string{ToggleDefault: "", ToggleOn: "on", ToggleOff: "off"}
)

// ParseClass resolves a case-file class name ("vsl", "ebl", "pns", "ns").
func ParseClass(name string) (SolverClass, error) {
	return parseName(classNames, name, "solver class", "vsl, ebl, pns or ns")
}

// parseName looks a case-file name up in its table; want lists the valid
// spellings for the error.
func parseName[T ~int](names map[T]string, name, kind, want string) (T, error) {
	for v, n := range names {
		if n == name {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown %s %q (want %s)", kind, name, want)
}

// textName spells v by its case-file name; a value with no name is an error.
func textName[T ~int](names map[T]string, v T, kind string) ([]byte, error) {
	name, ok := names[v]
	if !ok {
		return nil, fmt.Errorf("core: %s %d has no case-file name", kind, int(v))
	}
	return []byte(name), nil
}

// MarshalText spells the class by its case-file name.
func (c SolverClass) MarshalText() ([]byte, error) {
	return textName(classNames, c, "solver class")
}

// UnmarshalText parses a case-file class name.
func (c *SolverClass) UnmarshalText(b []byte) (err error) {
	*c, err = ParseClass(string(b))
	return err
}

// MarshalText spells the chemistry by its case-file name ("" when unset).
func (c GasChemistry) MarshalText() ([]byte, error) {
	return textName(chemistryNames, c, "chemistry")
}

// UnmarshalText parses a case-file chemistry name; "" is ChemistryUnset
// (session default).
func (c *GasChemistry) UnmarshalText(b []byte) (err error) {
	*c, err = parseName(chemistryNames, string(b), "chemistry", "ideal, equilibrium-air or equilibrium-titan")
	return err
}

// MarshalText spells the toggle "on", "off" or "" (deferring to the
// default).
func (t Toggle) MarshalText() ([]byte, error) {
	return textName(onOffNames, t, "toggle")
}

// UnmarshalText parses "on", "off" or "".
func (t *Toggle) UnmarshalText(b []byte) (err error) {
	*t, err = parseName(onOffNames, string(b), "toggle", `"on", "off" or omitted`)
	return err
}

// problemFields is Problem without its JSON methods, so problemJSON can
// embed its tagged fields.
type problemFields Problem

// problemJSON is the case-file form of a Problem: its tagged fields, with
// the geometry.Body interface swapped for its named BodySpec.
type problemJSON struct {
	problemFields
	Body *BodySpec `json:"body,omitempty"`
}

// MarshalJSON writes the problem as a case file, so a Problem built in code
// can be saved and reloaded. Runtime-only fields (functions, checkpoints,
// the Monitor) are dropped; a Body that is not a named geometry shape is an
// error.
func (p Problem) MarshalJSON() ([]byte, error) {
	body, err := namedBody(p.Body)
	if err != nil {
		return nil, err
	}
	return json.Marshal(problemJSON{problemFields(p), body})
}

// UnmarshalJSON parses a case file into the problem: names resolve through
// the class, chemistry and toggle tables, the body spec through the
// geometry package, and the knobs pass the same range checks a solve
// applies. A key the case-file form does not have — misspelled, or a
// removed knob — is an error, so the file never solves a different case
// than it spells.
func (p *Problem) UnmarshalJSON(data []byte) error {
	// A class outside the table until the file names one, so an absent
	// "class" cannot decode as VSL, the zero value.
	w := problemJSON{problemFields: problemFields{Class: -1}}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return err
	}
	q := Problem(w.problemFields)
	if _, ok := classNames[q.Class]; !ok {
		return fmt.Errorf("core: case has no \"class\" (want vsl, ebl, pns or ns)")
	}
	if err := validate(q); err != nil {
		return err
	}
	if w.Body != nil {
		var err error
		if q.Body, err = w.Body.Body(); err != nil {
			return err
		}
	}
	*p = q
	return nil
}
