// Package chem provides the chemistry substrate of cataero: a Gibbs
// free-energy equilibrium solver built on the element-potential method, and
// finite-rate reaction mechanisms with two-temperature rate evaluation for
// nonequilibrium flows. Both share the per-unit-volume partition functions of
// the thermo package, so the kinetic steady state coincides with the Gibbs
// minimum by construction.
package chem

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cataero/internal/numerics"
	"cataero/internal/thermo"
)

// EquilibriumSolver computes equilibrium compositions for a fixed species
// set. It is safe for concurrent use, so one solver can back many
// simultaneous session solves. Each call takes its per-call scratch (element
// densities, active sets, ln q, the Newton arrays and the composition) as a
// gibbsWork from the solver's pool, so no two calls share scratch and a
// warmed call allocates only the composition it returns. The one state
// calls share is the mutex-guarded warm start.
type EquilibriumSolver struct {
	Mix   *thermo.Mixture
	elems []string
	a     [][]float64 // a[e][s]: atoms of element e in species s
	z     []float64   // charge of species s
	ions  bool

	works sync.Pool // of *gibbsWork

	// warm-start element potentials from the previous successful solve,
	// guarded by warmMu (everything else is read-only after construction).
	warmMu sync.Mutex
	warm   []float64
	warmOK bool
}

// NewEquilibriumSolver builds a solver for the mixture's species set.
func NewEquilibriumSolver(m *thermo.Mixture) *EquilibriumSolver {
	elems := m.Elements()
	a := make([][]float64, len(elems))
	for e, name := range elems {
		a[e] = make([]float64, m.Len())
		for s, sp := range m.Species {
			a[e][s] = float64(sp.Elems[name])
		}
	}
	z := make([]float64, m.Len())
	ions := false
	for s, sp := range m.Species {
		z[s] = float64(sp.Charge)
		if sp.Charge != 0 {
			ions = true
		}
	}
	eq := &EquilibriumSolver{Mix: m, elems: elems, a: a, z: z, ions: ions}
	eq.works.New = func() any { return newGibbsWork(len(elems), m.Len()) }
	return eq
}

// gibbsWork is the scratch of one call. Its ln q column is keyed on the
// temperature and the active species set, so the density passes of one
// CompositionPT, which share a work, evaluate each partition function once.
type gibbsWork struct {
	b, n, nVals, y   []float64 // per element; per species (n, nVals, y)
	active, spActive []bool    // per element; per species
	actIdx           []int

	lnq    []float64 // lnq[s] = LnQEffV(lnqT) for each s in lnqSet
	lnqSet []bool
	lnqT   float64

	pi, f, dpi, piT, fT, J []float64 // Newton arrays: nu entries, J nu*nu
	piv                    []int
}

func newGibbsWork(ne, ns int) *gibbsWork {
	nu := ne + 1 // the element potentials and the charge potential
	return &gibbsWork{
		b: make([]float64, ne), n: make([]float64, ns), nVals: make([]float64, ns), y: make([]float64, ns),
		active: make([]bool, ne), spActive: make([]bool, ns), actIdx: make([]int, 0, ne),
		lnq: make([]float64, ns), lnqSet: make([]bool, ns),
		pi: make([]float64, nu), f: make([]float64, nu), dpi: make([]float64, nu),
		piT: make([]float64, nu), fT: make([]float64, nu), J: make([]float64, nu*nu),
		piv: make([]int, nu),
	}
}

// elementDensities writes to b the element number densities b_e (1/m^3)
// of a reference composition (mass fractions y0 at density rho).
func (eq *EquilibriumSolver) elementDensities(b []float64, rho float64, y0 []float64) {
	clear(b)
	for s, sp := range eq.Mix.Species {
		if y0[s] == 0 {
			continue
		}
		ns := rho * y0[s] / sp.W * thermo.NA
		for e := range eq.elems {
			b[e] += eq.a[e][s] * ns
		}
	}
}

// CompositionRhoT returns equilibrium mass fractions at density rho (kg/m^3)
// and temperature T (K), for the elemental content implied by the reference
// mass fractions y0. The returned slice has one entry per mixture species.
func (eq *EquilibriumSolver) CompositionRhoT(rho, T float64, y0 []float64) ([]float64, error) {
	w := eq.works.Get().(*gibbsWork)
	defer eq.works.Put(w)
	if err := eq.compositionRhoT(w, rho, T, y0); err != nil {
		return nil, err
	}
	return slices.Clone(w.y), nil
}

// compositionRhoT is CompositionRhoT into w.y.
func (eq *EquilibriumSolver) compositionRhoT(w *gibbsWork, rho, T float64, y0 []float64) error {
	if rho <= 0 || T <= 0 {
		return fmt.Errorf("chem: nonpositive state rho=%g T=%g", rho, T)
	}
	eq.elementDensities(w.b, rho, y0)
	n, err := eq.solve(w, T)
	if err != nil {
		return err
	}
	// Convert number densities to mass fractions.
	y := w.y
	sum := 0.0
	for s, sp := range eq.Mix.Species {
		y[s] = n[s] * sp.W / thermo.NA
		sum += y[s]
	}
	if sum <= 0 {
		return fmt.Errorf("chem: zero total mass in equilibrium solve")
	}
	for s := range y {
		y[s] /= sum
	}
	return nil
}

// solve runs the element-potential Newton iteration at temperature T for
// the element number densities w.b (1/m^3), returning species number
// densities in w.n.
func (eq *EquilibriumSolver) solve(w *gibbsWork, T float64) ([]float64, error) {
	b := w.b
	ns := eq.Mix.Len()

	// Active elements: those actually present.
	active := w.active
	bTot := 0.0
	actIdx := w.actIdx[:0]
	for e := range b {
		active[e] = b[e] > 0
		if active[e] {
			actIdx = append(actIdx, e)
			bTot += b[e]
		}
	}
	if bTot == 0 {
		return nil, fmt.Errorf("chem: no elements present")
	}
	// Active species: all constituent elements active.
	spActive := w.spActive
	anyIonActive := false
	for s, sp := range eq.Mix.Species {
		ok := true
		for e := range eq.elems {
			if eq.a[e][s] > 0 && !active[e] {
				ok = false
				break
			}
		}
		spActive[s] = ok
		if ok && sp.Charge > 0 {
			anyIonActive = true
		}
	}
	// The electron only participates when positive ions can form.
	useCharge := false
	for s, sp := range eq.Mix.Species {
		if sp.Name == "e-" {
			spActive[s] = anyIonActive && eq.ions
		}
	}
	useCharge = anyIonActive && eq.ions

	nA := len(actIdx)
	nu := nA
	if useCharge {
		nu++
	}

	lnq := w.lnq
	if w.lnqT != T || !slices.Equal(w.lnqSet, spActive) {
		for s, sp := range eq.Mix.Species {
			if spActive[s] {
				lnq[s] = sp.LnQEffV(T)
			}
		}
		w.lnqT = T
		copy(w.lnqSet, spActive)
	}
	lnRef := math.Log(bTot)

	// nsOf evaluates species number densities for potentials pi.
	nVals := w.nVals
	nsOf := func(pi []float64) bool {
		for s := range nVals {
			nVals[s] = 0
			if !spActive[s] {
				continue
			}
			ex := lnq[s] - lnRef
			for k, e := range actIdx {
				ex += eq.a[e][s] * pi[k]
			}
			if useCharge {
				ex += eq.z[s] * pi[nA]
			}
			if ex > 500 {
				return false // overflow: reject this step
			}
			nVals[s] = math.Exp(ex) // in units of bTot
		}
		return true
	}

	resid := func(pi, f []float64) bool {
		if !nsOf(pi) {
			return false
		}
		for k, e := range actIdx {
			sum := 0.0
			for s := 0; s < ns; s++ {
				sum += eq.a[e][s] * nVals[s]
			}
			f[k] = sum - b[e]/bTot
		}
		if useCharge {
			sum := 0.0
			for s := 0; s < ns; s++ {
				sum += eq.z[s] * nVals[s]
			}
			f[nA] = sum
		}
		return true
	}

	// Atomic guess: all of each element in its monatomic neutral species.
	// Exact in the fully dissociated high-temperature limit.
	atomicGuess := func(pi []float64) {
		for k, e := range actIdx {
			atomIdx := -1
			for s, sp := range eq.Mix.Species {
				if !spActive[s] || sp.Charge != 0 {
					continue
				}
				if eq.a[e][s] == 1 && len(sp.Elems) == 1 {
					atomIdx = s
					break
				}
			}
			if atomIdx >= 0 {
				pi[k] = math.Log(b[e]/bTot) - (lnq[atomIdx] - lnRef)
			} else {
				pi[k] = 0
			}
		}
		if useCharge {
			pi[nA] = 0
		}
	}
	// Molecular guess: all of each element in its most stable pure-element
	// species (N2 for N, O2 for O, H2 for H, C3 for C, ...). Exact in the
	// cold undissociated limit for homonuclear carriers.
	molecularGuess := func(pi []float64) {
		for k, e := range actIdx {
			best, bestK := -1, 0.0
			bestE := math.Inf(1)
			for s, sp := range eq.Mix.Species {
				if !spActive[s] || sp.Charge != 0 || len(sp.Elems) != 1 {
					continue
				}
				kAtoms := eq.a[e][s]
				if kAtoms < 1 {
					continue
				}
				perAtom := sp.Hf0 * sp.W / kAtoms
				if perAtom < bestE {
					bestE, best, bestK = perAtom, s, kAtoms
				}
			}
			if best >= 0 {
				pi[k] = (math.Log(b[e]/(bestK*bTot)) - (lnq[best] - lnRef)) / bestK
			} else {
				pi[k] = 0
			}
		}
		if useCharge {
			pi[nA] = 0
		}
	}

	pi, f, dpi, piT, fT := w.pi[:nu], w.f[:nu], w.dpi[:nu], w.piT[:nu], w.fT[:nu]
	J, piv := w.J[:nu*nu], w.piv[:nu]

	newton := func() error {
		// If the guess overflows, shrink the potentials toward zero until it
		// evaluates; the line search then walks back up safely.
		for try := 0; !resid(pi, f); try++ {
			if try > 60 {
				return fmt.Errorf("chem: initial guess overflows")
			}
			for i := range pi {
				pi[i] *= 0.7
			}
		}
		// Worst-case cold multi-element systems (all of one element bound in
		// a cross-element molecule like CH4) need long potential walks; each
		// iteration is microseconds, so a generous cap is cheap insurance.
		for iter := 0; iter < 2500; iter++ {
			r0 := numerics.NormInf(f)
			if r0 < 1e-12 {
				return nil
			}
			// Analytic Jacobian: J_kl = sum_s a_k[s] a_l[s] n_s.
			for ki := 0; ki < nu; ki++ {
				var ak []float64
				if ki < nA {
					ak = eq.a[actIdx[ki]]
				} else {
					ak = eq.z
				}
				for li := 0; li < nu; li++ {
					var al []float64
					if li < nA {
						al = eq.a[actIdx[li]]
					} else {
						al = eq.z
					}
					sum := 0.0
					for s := 0; s < ns; s++ {
						if nVals[s] != 0 {
							sum += ak[s] * al[s] * nVals[s]
						}
					}
					J[ki*nu+li] = sum
				}
			}
			// Regularize empty rows (e.g. charge row when ions have
			// underflowed to zero) by pinning that potential.
			for k := 0; k < nu; k++ {
				if math.Abs(J[k*nu+k]) < 1e-250 {
					for l := 0; l < nu; l++ {
						J[k*nu+l] = 0
						J[l*nu+k] = 0
					}
					J[k*nu+k] = 1
					f[k] = 0
				}
			}
			copy(dpi, f)
			if err := numerics.SolveDenseInPlace(J, dpi, piv, nu); err != nil {
				return err
			}
			// Clamp the update to keep exponents sane.
			if s := numerics.NormInf(dpi); s > 8 {
				sc := 8 / s
				for i := range dpi {
					dpi[i] *= sc
				}
			}
			lam := 1.0
			ok := false
			for lam >= 1e-4 {
				for i := range pi {
					piT[i] = pi[i] - lam*dpi[i]
				}
				if resid(piT, fT) && numerics.NormInf(fT) < r0 {
					copy(pi, piT)
					copy(f, fT)
					ok = true
					break
				}
				lam *= 0.5
			}
			if !ok {
				// Accept a tiny step to escape flat regions.
				for i := range pi {
					pi[i] -= 1e-4 * dpi[i]
				}
				if !resid(pi, f) {
					return fmt.Errorf("chem: Newton step overflow at iter %d", iter)
				}
			}
		}
		if numerics.NormInf(f) < 1e-8 {
			return nil
		}
		return fmt.Errorf("chem: equilibrium Newton failed (|f|=%.3e, T=%g)", numerics.NormInf(f), T)
	}

	// Try guesses in order of expected quality: warm start from the previous
	// solve, then the molecular (cold-limit) guess, then the atomic
	// (hot-limit) guess.
	var err error
	tried := false
	eq.warmMu.Lock()
	if eq.warmOK && len(eq.warm) == nu {
		copy(pi, eq.warm)
		tried = true
	}
	eq.warmMu.Unlock()
	if tried {
		err = newton()
	}
	if !tried || err != nil {
		molecularGuess(pi)
		err = newton()
	}
	if err != nil {
		atomicGuess(pi)
		err = newton()
	}
	if err != nil {
		eq.warmMu.Lock()
		eq.warmOK = false
		eq.warmMu.Unlock()
		return nil, err
	}
	eq.warmMu.Lock()
	if eq.warm == nil || len(eq.warm) != nu {
		eq.warm = make([]float64, nu)
	}
	copy(eq.warm, pi)
	eq.warmOK = true
	eq.warmMu.Unlock()

	// Return absolute number densities.
	out := w.n
	if !nsOf(pi) {
		return nil, fmt.Errorf("chem: final state overflow")
	}
	for s := range out {
		out[s] = nVals[s] * bTot
	}
	return out, nil
}

// CompositionPT returns equilibrium mass fractions and the mixture density at
// pressure p (Pa) and temperature T (K) for the element content of y0.
func (eq *EquilibriumSolver) CompositionPT(p, T float64, y0 []float64) (y []float64, rho float64, err error) {
	if p <= 0 || T <= 0 {
		return nil, 0, fmt.Errorf("chem: nonpositive state p=%g T=%g", p, T)
	}
	// One work serves every density pass, so ln q is evaluated once.
	w := eq.works.Get().(*gibbsWork)
	defer eq.works.Put(w)
	// Initial density guess from the reference composition.
	rho = eq.Mix.Density(p, T, y0)
	for iter := 0; iter < 60; iter++ {
		if err = eq.compositionRhoT(w, rho, T, y0); err != nil {
			return nil, 0, err
		}
		pGot := eq.Mix.Pressure(rho, T, w.y)
		f := pGot/p - 1
		if math.Abs(f) < 1e-10 {
			return slices.Clone(w.y), rho, nil
		}
		// p is nearly proportional to rho at fixed T; secant-like update
		// with damping handles the composition shift.
		fac := p / pGot
		fac = numerics.Clamp(fac, 0.3, 3)
		rho *= fac
	}
	return slices.Clone(w.y), rho, fmt.Errorf("chem: CompositionPT failed to converge at p=%g T=%g", p, T)
}

// EnthalpyPT returns the equilibrium specific enthalpy at (p, T).
func (eq *EquilibriumSolver) EnthalpyPT(p, T float64, y0 []float64) (float64, error) {
	y, _, err := eq.CompositionPT(p, T, y0)
	if err != nil {
		return 0, err
	}
	return eq.Mix.Enthalpy(T, y), nil
}

// TemperaturePH inverts h_eq(p,T) = h for T by bracketed bisection/secant.
// Returns temperature, composition and density.
func (eq *EquilibriumSolver) TemperaturePH(p, h float64, y0 []float64) (T float64, y []float64, rho float64, err error) {
	lo, hi := 150.0, 40000.0
	f := func(T float64) (float64, []float64, float64, error) {
		yy, r, e := eq.CompositionPT(p, T, y0)
		if e != nil {
			return 0, nil, 0, e
		}
		return eq.Mix.Enthalpy(T, yy) - h, yy, r, nil
	}
	flo, _, _, err := f(lo)
	if err != nil {
		return 0, nil, 0, err
	}
	fhi, _, _, err := f(hi)
	if err != nil {
		return 0, nil, 0, err
	}
	if flo > 0 {
		// Enthalpy below the low bracket: return the bracket edge.
		y, rho, err = eq.CompositionPT(p, lo, y0)
		return lo, y, rho, err
	}
	if fhi < 0 {
		y, rho, err = eq.CompositionPT(p, hi, y0)
		return hi, y, rho, err
	}
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		fm, ym, rm, e := f(mid)
		if e != nil {
			return 0, nil, 0, e
		}
		if math.Abs(fm) < 1e-7*math.Abs(h)+1e-3 {
			return mid, ym, rm, nil
		}
		if fm > 0 {
			hi = mid
		} else {
			lo = mid
		}
		if hi-lo < 1e-3 {
			return mid, ym, rm, nil
		}
	}
	return 0, nil, 0, fmt.Errorf("chem: TemperaturePH failed at p=%g h=%g", p, h)
}

// TemperatureRhoE inverts e_eq(rho,T) = e for T. Returns temperature and the
// equilibrium composition. T0 is an optional starting guess.
func (eq *EquilibriumSolver) TemperatureRhoE(rho, e float64, y0 []float64, T0 float64) (T float64, y []float64, err error) {
	lo, hi := 150.0, 40000.0
	g := func(T float64) (float64, []float64, error) {
		yy, er := eq.CompositionRhoT(rho, T, y0)
		if er != nil {
			return 0, nil, er
		}
		return eq.Mix.EInternal(T, yy) - e, yy, nil
	}
	// Fast path: local secant around T0 when provided.
	if T0 > lo && T0 < hi {
		T1 := T0
		f1, y1, er := g(T1)
		if er == nil {
			if math.Abs(f1) < 1e-9*math.Abs(e)+1e-3 {
				return T1, y1, nil
			}
			T2 := T1 * 1.01
			for i := 0; i < 30; i++ {
				f2, y2, er2 := g(T2)
				if er2 != nil {
					break
				}
				if math.Abs(f2) < 1e-9*math.Abs(e)+1e-3 {
					return T2, y2, nil
				}
				if f2 == f1 {
					break
				}
				T3 := T2 - f2*(T2-T1)/(f2-f1)
				if T3 < lo || T3 > hi || math.IsNaN(T3) {
					break
				}
				T1, f1 = T2, f2
				T2 = T3
				_ = y2
			}
		}
	}
	// Robust path: bisection.
	flo, _, er := g(lo)
	if er != nil {
		return 0, nil, er
	}
	if flo > 0 {
		y, er = eq.CompositionRhoT(rho, lo, y0)
		return lo, y, er
	}
	fhi, _, er := g(hi)
	if er != nil {
		return 0, nil, er
	}
	if fhi < 0 {
		y, er = eq.CompositionRhoT(rho, hi, y0)
		return hi, y, er
	}
	for i := 0; i < 80; i++ {
		mid := 0.5 * (lo + hi)
		fm, ym, e2 := g(mid)
		if e2 != nil {
			return 0, nil, e2
		}
		if math.Abs(fm) < 1e-8*math.Abs(e)+1e-3 || hi-lo < 1e-3 {
			return mid, ym, nil
		}
		if fm > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0, nil, fmt.Errorf("chem: TemperatureRhoE failed at rho=%g e=%g", rho, e)
}
