package cataero

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/atmosphere"
	"cataero/internal/blayer"
	"cataero/internal/chem"
	"cataero/internal/euler"
	"cataero/internal/freeflight"
	"cataero/internal/geometry"
	"cataero/internal/ns"
	"cataero/internal/radiation"
	"cataero/internal/shocktube"
	"cataero/internal/thermo"
	"cataero/internal/transport"
	"cataero/internal/vsl"
)

// Quality scales the figure-runner grids: 1 = bench/default, 2 = finer.
type Quality int

// Series is a generic labeled (x, y) series for figure output.
type Series struct {
	Label string
	X, Y  []float64
}

// --- Fig. 1: flight domain and simulation capability ---

// Fig1Result holds the flight-domain map.
type Fig1Result struct {
	Vehicles   []Series // X = Mach, Y = Reynolds
	Facilities []freeflight.Facility
	// GapFraction is the fraction of AOTV trajectory points no facility
	// covers (the paper's motivating simulation gap).
	GapFraction float64
}

// Fig1FlightDomain regenerates the paper's Fig. 1.
func Fig1FlightDomain() Fig1Result {
	var out Fig1Result
	fac := freeflight.StandardFacilities()
	out.Facilities = fac
	for _, v := range freeflight.StandardVehicles() {
		pts := freeflight.Domain(v)
		s := Series{Label: v.Name}
		uncovered := 0
		for _, p := range pts {
			s.X = append(s.X, p.Mach)
			s.Y = append(s.Y, p.Reynolds)
			if !freeflight.Covered(p, fac) {
				uncovered++
			}
		}
		if v.Name == "AOTV aeropass" {
			out.GapFraction = float64(uncovered) / float64(len(pts))
		}
		out.Vehicles = append(out.Vehicles, s)
	}
	return out
}

// --- Fig. 2: Titan probe heating pulses ---

// Fig2Result holds convective and radiative stagnation heating vs time.
type Fig2Result struct {
	Time        []float64 // s
	QConv, QRad []float64 // W/cm^2 (the paper's unit)
	PeakConv    float64
	PeakRad     float64
	TPeakConv   float64
	TPeakRad    float64
}

func titanVSLInputs() vsl.Inputs {
	m := thermo.NewMixture(thermo.TitanSpecies())
	return vsl.Inputs{
		Mix: m,
		Eq:  chem.NewEquilibriumSolver(m),
		Tr:  transport.NewMixture(m),
		Rad: radiation.NewTitanModel(m, 260),
		Y0:  thermo.TitanFreestreamMassFractions(m.Species),
		Rn:  1.25, TWall: 1800, NPts: 28,
	}
}

// Fig2TitanHeatingPulse regenerates the paper's Fig. 2 on the session's
// worker pool: a 12 km/s Titan probe entry, integrated as a trajectory and
// swept as one concurrent SolveBatch of stagnation-line VSL problems.
func (s *Session) Fig2TitanHeatingPulse(ctx context.Context) (*Fig2Result, error) {
	ti := atmosphere.NewTitan()
	veh := atmosphere.Vehicle{Mass: 2100, RefArea: 5.3, CD: 1.05, NoseRadius: 1.25}
	traj, err := atmosphere.IntegrateEntry(ti, veh, atmosphere.EntryConditions{
		Altitude: 600e3, Velocity: 12000, Gamma: -40 * math.Pi / 180,
	}, 2000, 2.0)
	if err != nil {
		return nil, err
	}
	// One VSL problem per trajectory point with non-negligible heating.
	var probs []Problem
	var times []float64
	for _, tp := range traj {
		if !vsl.SignificantHeating(tp) {
			continue
		}
		probs = append(probs, Problem{
			Class: VSL, Chemistry: EquilibriumTitan, Radiation: true,
			PInf: tp.Pressure, TInf: tp.Temp, VInf: tp.Velocity,
			NoseRadius: 1.25, TWall: 1800, NStations: 28,
		})
		times = append(times, tp.Time)
	}
	results, err := s.SolveBatch(ctx, probs)
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for i, r := range results {
		if r.Err != nil {
			// Individual trajectory points may sit outside the equilibrium
			// solver's range right at the entry interface; skip them rather
			// than abort the pulse.
			continue
		}
		qc, qr := r.Env.QConvStag/1e4, r.Env.QRadStag/1e4 // W/m^2 -> W/cm^2
		out.Time = append(out.Time, times[i])
		out.QConv = append(out.QConv, qc)
		out.QRad = append(out.QRad, qr)
		if qc > out.PeakConv {
			out.PeakConv, out.TPeakConv = qc, times[i]
		}
		if qr > out.PeakRad {
			out.PeakRad, out.TPeakRad = qr, times[i]
		}
	}
	if len(out.Time) == 0 {
		return nil, fmt.Errorf("cataero: no valid heating points along trajectory")
	}
	return out, nil
}

// Fig2TitanHeatingPulse regenerates the paper's Fig. 2 on the shared
// default session.
func Fig2TitanHeatingPulse() (*Fig2Result, error) {
	return defaultSession().Fig2TitanHeatingPulse(context.Background())
}

// --- Fig. 3: Titan stagnation-line species profiles ---

// Fig3Result holds species mole fractions along the stagnation line.
type Fig3Result struct {
	YOverDelta []float64
	Species    map[string][]float64 // mole fractions per point
	Delta      float64              // shock standoff, m (the paper quotes 2.24 cm)
}

// Fig3TitanSpeciesProfile regenerates the paper's Fig. 3 at a peak-heating
// condition of the Fig. 2 entry (the denser, slightly decelerated point
// where the equilibrium layer keeps molecular N2 dominant near the wall).
func Fig3TitanSpeciesProfile() (*Fig3Result, error) {
	in := titanVSLInputs()
	in.PInf, in.TInf, in.VInf = 120.0, 165, 7500
	in.NPts = 40
	r, err := vsl.Solve(context.Background(), in)
	if err != nil {
		return nil, err
	}
	out := &Fig3Result{Delta: r.Standoff, Species: map[string][]float64{}}
	m := in.Mix
	for i, y := range r.Y {
		out.YOverDelta = append(out.YOverDelta, y/r.Standoff)
		x := m.MoleFractions(r.Species[i])
		for s, sp := range m.Species {
			out.Species[sp.Name] = append(out.Species[sp.Name], x[s])
		}
	}
	return out, nil
}

// --- Fig. 4: Orbiter pitch-plane shock shapes ---

// Fig4Result holds the bow-shock loci for reacting vs ideal gas.
type Fig4Result struct {
	IdealX, IdealY       []float64
	ReactingX, ReactingY []float64
	BodyX, BodyY         []float64
	StandoffIdeal        float64
	StandoffReacting     float64
}

// Fig4OrbiterShockShape regenerates the paper's Fig. 4 — V=6.7 km/s at
// 65.5 km, alpha=30 deg, planar pitch-plane model — as one concurrent
// ShockShapeBatch of the ideal and equilibrium-air runs.
func (s *Session) Fig4OrbiterShockShape(ctx context.Context, q Quality) (*Fig4Result, error) {
	earth := atmosphere.NewEarth()
	st := earth.AtAltitude(65.5e3)
	o := geometry.NewOrbiter()
	body := euler.OrbiterPitchPlaneBody(o, 30*math.Pi/180, 10)
	ni, nj, steps := 16, 26, 2600
	if q >= 2 {
		ni, nj, steps = 28, 40, 5000
	}
	base := Problem{
		Body: body, NI: ni, NJ: nj, MaxSteps: steps,
		VInf: 6700, PInf: st.Pressure, TInf: st.Temperature,
		Standoff: func(s float64) float64 { return 1.6*body.NoseRadius() + 0.45*s },
	}
	pI, pE := base, base
	pI.Chemistry = IdealGas
	pE.Chemistry = EquilibriumAir
	results, err := s.ShockShapeBatch(ctx, []Problem{pI, pE})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s run: %w", r.Problem.Chemistry, r.Err)
		}
	}
	rI, rE := results[0].Env, results[1].Env
	return &Fig4Result{
		IdealX: rI.X, IdealY: rI.Y,
		ReactingX: rE.X, ReactingY: rE.Y,
		BodyX: rI.BodyX, BodyY: rI.BodyY,
		StandoffIdeal:    rI.Standoff,
		StandoffReacting: rE.Standoff,
	}, nil
}

// Fig4OrbiterShockShape regenerates the paper's Fig. 4 on the shared
// default session.
func Fig4OrbiterShockShape(q Quality) (*Fig4Result, error) {
	return defaultSession().Fig4OrbiterShockShape(context.Background(), q)
}

// --- Fig. 5: Orbiter geometry ---

// Fig5OrbiterGeometry returns the discretized Orbiter geometry used by the
// windward-plane analyses (the paper's Fig. 5).
func Fig5OrbiterGeometry(ns int) []geometry.OrbiterSection {
	if ns == 0 {
		ns = 30
	}
	return geometry.NewOrbiter().Sections(ns)
}

// --- Fig. 6: windward centerline heating ---

// Fig6Result holds the windward-centerline heating comparison.
type Fig6Result struct {
	XOverL            []float64
	QEquilibrium      []float64 // W/cm^2, fully catalytic equilibrium air
	QIdeal            []float64 // W/cm^2, gamma = 1.2 ideal gas
	FlightX, FlightQ  []float64 // synthetic "STS-3" points (finite catalysis)
	CatalysisFraction float64   // flight/equilibrium stagnation ratio
}

// Fig6WindwardHeating regenerates the paper's Fig. 6: STS-3 point
// (V=6.74 km/s, h=71.3 km, alpha=40 deg) on the equivalent axisymmetric
// body. The equilibrium-air and gamma=1.2 ideal-gas PNS marches run as one
// concurrent SolveBatch; synthetic flight data come from a partially
// catalytic wall.
func (s *Session) Fig6WindwardHeating(ctx context.Context) (*Fig6Result, error) {
	earth := atmosphere.NewEarth()
	st := earth.AtAltitude(71.3e3)
	o := geometry.NewOrbiter()
	body := o.EquivalentAxisymmetric(40 * math.Pi / 180)
	nSt := 22
	twall := 1100.0

	base := Problem{
		Class: PNS, Body: body,
		PInf: st.Pressure, TInf: st.Temperature, VInf: 6740,
		TWall: twall, NStations: nSt,
	}
	pE, pI := base, base
	pE.Chemistry = EquilibriumAir
	pI.Chemistry = IdealGas
	pI.Gamma = 1.2
	results, err := s.SolveBatch(ctx, []Problem{pE, pI})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("%s march: %w", r.Problem.Chemistry, r.Err)
		}
	}
	resE, resI := results[0].Env.Surface, results[1].Env.Surface

	out := &Fig6Result{}
	// Map arc length on the equivalent body to x/L on the Orbiter.
	for i := range resE {
		out.XOverL = append(out.XOverL, resE[i].S/o.Length)
		out.QEquilibrium = append(out.QEquilibrium, resE[i].Q/1e4)
		out.QIdeal = append(out.QIdeal, resI[i].Q/1e4)
	}
	// Synthetic flight data: the catalytic-efficiency story. Scale the
	// equilibrium prediction by the finite-catalycity stagnation ratio and
	// add a deterministic pseudo-measurement scatter.
	mod, err := s.stack.Models(EquilibriumAir)
	if err != nil {
		return nil, err
	}
	m, eq, tr, y0 := mod.Mix, mod.Eq, mod.Tr, mod.Y0
	fs := blayer.FreeStream{P: st.Pressure, T: st.Temperature, Rho: st.Density, V: 6740}
	in, err := blayer.StagnationFromFreestream(eq, y0, fs, twall, body.NoseRadius())
	if err != nil {
		return nil, err
	}
	full, err := blayer.SolveStagnation(m, tr, in.Edge, twall, fs.P, body.NoseRadius(), 1)
	if err != nil {
		return nil, err
	}
	finite, err := blayer.SolveStagnation(m, tr, in.Edge, twall, fs.P, body.NoseRadius(), 0.01)
	if err != nil {
		return nil, err
	}
	frac := finite.QWall / full.QWall
	out.CatalysisFraction = frac
	for i := 1; i < len(resE); i += 3 {
		noise := 1 + 0.08*math.Sin(7.3*float64(i))
		out.FlightX = append(out.FlightX, resE[i].S/o.Length)
		out.FlightQ = append(out.FlightQ, resE[i].Q/1e4*frac*noise)
	}
	return out, nil
}

// Fig6WindwardHeating regenerates the paper's Fig. 6 on the shared default
// session.
func Fig6WindwardHeating() (*Fig6Result, error) {
	return defaultSession().Fig6WindwardHeating(context.Background())
}

// --- Fig. 7: two-temperature shock relaxation ---

// Fig7Result holds the relaxation-zone structure.
type Fig7Result struct {
	X       []float64 // m behind the shock
	T, Tv   []float64 // K
	XN2, XN []float64 // mole fractions
	XE      []float64 // electron mole fraction
	TFrozen float64   // frozen post-shock temperature
	TEq     float64   // relaxed equilibrium temperature
}

// Fig7ShockRelaxation regenerates the paper's Fig. 7: a 10 km/s shock into
// 0.1 torr air with two-temperature dissociating/ionizing relaxation.
func Fig7ShockRelaxation() (*Fig7Result, error) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	mech, err := chem.AirMechanism(m)
	if err != nil {
		return nil, err
	}
	prob := shocktube.Problem{
		Mix: m, Mech: mech,
		P1: 13.0, T1: 300, U1: 10000,
		Y1:   thermo.AirFreestreamMassFractions(m.Species),
		XEnd: 0.05, NOut: 90,
	}
	prof, err := shocktube.Solve(prob)
	if err != nil {
		return nil, err
	}
	out := &Fig7Result{TFrozen: prof.T[0]}
	for i := range prof.X {
		out.X = append(out.X, prof.X[i])
		out.T = append(out.T, prof.T[i])
		out.Tv = append(out.Tv, prof.Tv[i])
		x := m.MoleFractions(prof.Y[i])
		out.XN2 = append(out.XN2, x[thermo.AirN2])
		out.XN = append(out.XN, x[thermo.AirN])
		out.XE = append(out.XE, x[thermo.AirE])
	}
	eq := chem.NewEquilibriumSolver(m)
	Teq, _, err := shocktube.EquilibriumTail(eq, prob)
	if err == nil {
		out.TEq = Teq
	}
	return out, nil
}

// --- Fig. 8: nonequilibrium spectra ---

// Fig8Result holds the computed vs "measured" spectral comparison.
type Fig8Result struct {
	LambdaNm []float64
	Computed []float64 // wall-directed spectral intensity, W/(m^2 sr m)
	Measured []float64 // synthetic reference (perturbed physics + noise)
}

// Fig8NoneqSpectra regenerates the paper's Fig. 8: the spectral emission of
// the Fig. 7 relaxation zone through a tangent slab, compared against a
// synthetic measurement.
func Fig8NoneqSpectra() (*Fig8Result, error) {
	m := thermo.NewMixture(thermo.AirSpecies11())
	mech, err := chem.AirMechanism(m)
	if err != nil {
		return nil, err
	}
	prob := shocktube.Problem{
		Mix: m, Mech: mech,
		P1: 13.0, T1: 300, U1: 10000,
		Y1:   thermo.AirFreestreamMassFractions(m.Species),
		XEnd: 0.03, NOut: 50,
	}
	prof, err := shocktube.Solve(prob)
	if err != nil {
		return nil, err
	}
	md := radiation.NewAirModel(m, 480)
	var layers []radiation.Layer
	for i := 1; i < len(prof.X); i++ {
		layers = append(layers, radiation.Layer{
			Thickness: prof.X[i] - prof.X[i-1],
			T:         0.5 * (prof.T[i] + prof.T[i-1]),
			Tex:       0.5 * (prof.Tv[i] + prof.Tv[i-1]),
			N:         m.NumberDensities(prof.Rho[i], prof.Y[i]),
		})
	}
	res := md.SolveSlab(layers)
	out := &Fig8Result{LambdaNm: res.LambdaNm, Computed: res.WallSpectrumI}
	// Synthetic measurement: band strengths off by up to 25% plus noise,
	// deterministic so the comparison is reproducible.
	out.Measured = make([]float64, len(res.WallSpectrumI))
	for i, v := range res.WallSpectrumI {
		l := res.LambdaNm[i]
		bandPerturb := 1 + 0.25*math.Sin(l/60)
		noise := 1 + 0.1*math.Sin(13.7*l)
		out.Measured[i] = v * bandPerturb * noise
	}
	return out, nil
}

// --- Fig. 9: hemisphere NS N2 contours ---

// Fig9Result holds the N2 mole-fraction field summary.
type Fig9Result struct {
	ContourX map[float64]float64 // stagnation-line x of each contour level
	MinXN2   float64             // strongest dissociation in the field
	QStag    float64             // stagnation heat flux, W/m^2
	Standoff float64
}

// Fig9HemisphereNS regenerates the paper's Fig. 9 — Mach-20 equilibrium air
// over a hemisphere at 20 km altitude — through the session NS solver, so
// repeated runs reuse the cached equilibrium EOS table; the N2 contour
// field comes from the solver payload on Environment.Raw.
func (s *Session) Fig9HemisphereNS(ctx context.Context, q Quality) (*Fig9Result, error) {
	earth := atmosphere.NewEarth()
	st := earth.AtAltitude(20e3)
	eqm := s.stack.EquilibriumAirGas()
	mu, k, err := ns.EquilibriumTransport(eqm, transport.NewMixture(eqm.Mix), 0.3)
	if err != nil {
		return nil, err
	}
	ni, nj, steps := 14, 26, 3000
	if q >= 2 {
		ni, nj, steps = 24, 40, 6000
	}
	aInf := math.Sqrt(thermo.GammaAir * thermo.RAir * st.Temperature)
	env, err := s.Solve(ctx, Problem{
		Class: NS, Chemistry: EquilibriumAir,
		PInf: st.Pressure, TInf: st.Temperature, VInf: 20 * aInf,
		NoseRadius: 0.3, TWall: 1500,
		NI: ni, NJ: nj, MaxSteps: steps,
		Mu: mu, K: k,
	})
	if err != nil {
		return nil, err
	}
	r, ok := env.Raw.(*ns.Result)
	if !ok {
		return nil, fmt.Errorf("cataero: NS solver returned no field payload")
	}
	y0 := thermo.AirFreestreamMassFractions(eqm.Mix.Species)
	levels := []float64{0.5, 0.55, 0.6, 0.65, 0.7, 0.75}
	cross, err := r.ContourCrossings(eqm.Eq, y0, levels)
	if err != nil {
		return nil, err
	}
	_, _, xn2, err := r.N2Field(eqm.Eq, y0)
	if err != nil {
		return nil, err
	}
	minX := 1.0
	for _, v := range xn2 {
		if v < minX {
			minX = v
		}
	}
	return &Fig9Result{
		ContourX: cross,
		MinXN2:   minX,
		QStag:    env.QConvStag,
		Standoff: env.Standoff,
	}, nil
}

// Fig9HemisphereNS regenerates the paper's Fig. 9 on the shared default
// session.
func Fig9HemisphereNS(q Quality) (*Fig9Result, error) {
	return defaultSession().Fig9HemisphereNS(context.Background(), q)
}
