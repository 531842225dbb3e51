package core

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"cataero/internal/fvm"
	"cataero/internal/geometry"
)

func TestProblemJSONRoundTrip(t *testing.T) {
	cases := []Problem{
		{
			Name:  "shuttle entry point",
			Class: VSL, Chemistry: EquilibriumAir,
			PInf: 4.8, TInf: 217, VInf: 6740,
			NoseRadius: 0.6, TWall: 1200, Radiation: true, NStations: 14,
		},
		{
			Class: NS, Chemistry: IdealGas, Gamma: 1.3,
			PInf: 5474.9, TInf: 216.65, VInf: 1770,
			Body: geometry.NewSphere(0.3), NoseRadius: 0.3,
			TWall: 600, NI: 8, NJ: 14, MaxSteps: 120,
			Flux: "hllc", TimeStepping: "implicit",
			Limiter:        "vanalbada",
			GridSequencing: ToggleOff,
		},
		{
			Name:  "multilevel viscous",
			Class: NS, Chemistry: IdealGas,
			PInf: 5474.9, TInf: 216.65, VInf: 1770,
			NoseRadius: 0.3, TWall: 600,
			TimeStepping: "implicit",
			Levels:       3, Cycle: "cascade", RefitEvery: 50,
		},
		{
			Class: PNS, Chemistry: EquilibriumTitan,
			PInf: 100, TInf: 170, VInf: 6000,
			Body:       geometry.NewSphereCone(0.5, 30*math.Pi/180, 1.2),
			NoseRadius: 0.5, TWall: 1500, GammaW: 0.1,
			GridSequencing: ToggleOn,
		},
	}
	for i, p := range cases {
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var q Problem
		if err := json.Unmarshal(data, &q); err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Errorf("case %d: round trip changed the problem:\n got %+v\nwant %+v\njson %s", i, q, p, data)
		}
		// The canonical JSON is a case file too, and parses back to a
		// problem with its own key: Server.Recover re-submits a stored
		// checkpoint's spec on exactly that property.
		np, err := Normalize(p)
		if err != nil {
			t.Fatalf("case %d: normalize: %v", i, err)
		}
		canon, err := CanonicalJSON(np)
		if err != nil {
			t.Fatalf("case %d: canonical json: %v", i, err)
		}
		var r Problem
		if err := json.Unmarshal(canon, &r); err != nil {
			t.Fatalf("case %d: canonical json %s does not parse: %v", i, canon, err)
		}
		if want, got := caseKey(t, np), caseKey(t, r); got != want {
			t.Errorf("case %d: canonical json re-keys to %s, want %s\njson %s", i, got, want, canon)
		}
	}
}

func caseKey(t *testing.T, p Problem) string {
	t.Helper()
	key, err := CaseKey(p)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestProblemJSONHyperboloidBody(t *testing.T) {
	// The hyperboloid tabulates its profile numerically, so compare shape
	// samples rather than the internal grids.
	p := Problem{
		Class: NS, PInf: 100, TInf: 250, VInf: 2000,
		Body: geometry.NewHyperboloid(0.4, 40*math.Pi/180, 2.0), NoseRadius: 0.4,
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Problem
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	hb, ok := q.Body.(*geometry.Hyperboloid)
	if !ok {
		t.Fatalf("body came back as %T", q.Body)
	}
	for _, s := range []float64{0, 0.5, 1.0, 1.9} {
		x0, r0 := p.Body.Point(s)
		x1, r1 := hb.Point(s)
		if math.Abs(x0-x1) > 1e-9 || math.Abs(r0-r1) > 1e-9 {
			t.Fatalf("shape at s=%g: (%g,%g) vs (%g,%g)", s, x0, r0, x1, r1)
		}
	}
}

func TestCaseSpecErrors(t *testing.T) {
	bad := []string{
		`{"class":"warp-drive","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","chemistry":"unobtainium","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","body":{"kind":"klein-bottle","nose_radius":1},"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","grid_sequencing":"maybe","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","body":{"kind":"sphere"},"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"vsl","n_stations":-5,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ebl","n_stations":1,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"pns","n_stations":2,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","ni":-1,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","nj":-1,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","max_steps":-1,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","levels":-2,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","cycle":"v","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","refit_every":-3,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","checkpoint_every":-1,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","flux":"bogus","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","time_stepping":"rk4","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","implicit_sweep":"zebra","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","limiter":"superbee","p_inf":1,"t_inf":1,"v_inf":1}`,
		// An absent class must not decode as VSL, the zero value.
		`{"p_inf":1,"t_inf":1,"v_inf":1,"nose_radius":1}`,
	}
	for i, s := range bad {
		var p Problem
		if err := json.Unmarshal([]byte(s), &p); err == nil {
			t.Errorf("bad case %d accepted: %s", i, s)
		}
	}
	// A key the case-file form does not have fails by name: the removed
	// freeze and ramp knobs, a misspelling, and an unknown body dimension.
	for _, s := range []string{
		`{"class":"ns","freeze_limiter_at":2,"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","cfl_ramp":{"start":5},"p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","timestepping":"implicit","p_inf":1,"t_inf":1,"v_inf":1}`,
		`{"class":"ns","body":{"kind":"sphere","nose_radius":1,"radius":2},"p_inf":1,"t_inf":1,"v_inf":1}`,
	} {
		var p Problem
		if err := json.Unmarshal([]byte(s), &p); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("case with an unknown key: got %v, want an unknown-field error: %s", err, s)
		}
	}
	// A body with no named shape cannot be saved declaratively.
	orb := geometry.NewOrbiter()
	if _, err := json.Marshal(Problem{Class: NS, Body: orbiterBody{orb}, PInf: 1, TInf: 1, VInf: 1}); err == nil {
		t.Error("unnamed body marshaled")
	} else if !strings.Contains(err.Error(), "case-file representation") {
		t.Errorf("wrong error: %v", err)
	}
}

// validate runs up to four times per serve request, so accepting a
// problem — names included — must cost no allocation.
func TestValidateAcceptsWithoutAllocating(t *testing.T) {
	p := Problem{Class: NS, Flux: fvm.FluxHLLC, TimeStepping: fvm.TimeSteppingImplicit,
		ImplicitSweep: fvm.ImplicitSweepADI, Limiter: fvm.LimiterVanAlbada, Levels: 2}
	if n := testing.AllocsPerRun(100, func() {
		if err := validate(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("validate allocates %g times per accepted problem", n)
	}
}

// orbiterBody is a throwaway Body implementation with no case-file name.
type orbiterBody struct{ o *geometry.Orbiter }

func (b orbiterBody) Name() string                   { return "orbiter" }
func (b orbiterBody) Point(s float64) (x, r float64) { return s, s }
func (b orbiterBody) Angle(s float64) float64        { return 0 }
func (b orbiterBody) NoseRadius() float64            { return b.o.Rn }
func (b orbiterBody) MaxS() float64                  { return b.o.Length }

func TestToggleEnabled(t *testing.T) {
	if !ToggleOn.Enabled(false) || ToggleOff.Enabled(true) {
		t.Error("explicit toggles must win over the default")
	}
	if ToggleDefault.Enabled(false) || !ToggleDefault.Enabled(true) {
		t.Error("default toggle must follow the default")
	}
}
