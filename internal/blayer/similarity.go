package blayer

import (
	"fmt"
	"math"

	"cataero/internal/numerics"
	"cataero/internal/shock"
	"cataero/internal/thermo"
	"cataero/internal/transport"
)

// SimilaritySolution is the converged stagnation boundary layer.
type SimilaritySolution struct {
	Eta            []float64
	YPhys          []float64 // physical wall distance of each eta node, m
	F              []float64 // f' velocity ratio
	G              []float64 // sensible-enthalpy ratio
	Z              []float64 // atom mass-fraction ratio c/c_e
	GPrime0        float64
	ZPrime0        float64
	QWall          float64 // total wall heat flux, W/m^2
	QConduction    float64
	QRecombination float64
	Delta          float64 // physical boundary-layer thickness (99%), m
}

// SolveStagnation solves the Lees-Dorodnitsyn similarity equations at an
// axisymmetric stagnation point with an equilibrium edge and a chemically
// frozen boundary layer whose atoms diffuse to a wall of finite
// catalycity (Goulard's model):
//
//	(C f'')' + f f'' + (rho_e/rho - f'^2)/2 = 0
//	(C/Pr g')' + f g' = 0
//	(C Le/Pr z')' + f z' = 0
//
// with g the sensible-enthalpy ratio and z the atom fraction ratio. gammaW
// is the wall's catalytic recombination coefficient in [0,1].
func SolveStagnation(m *thermo.Mixture, tr *transport.Mixture, edge shock.StagnationState, wallT, pInf, rn, gammaW float64) (*SimilaritySolution, error) {
	// The similarity grid (eta in [0, etaMax] on n points), the Lewis number
	// and the relaxation's sweep cap and tolerance. They stay variables: a
	// constant expression folds with exact arithmetic and could move the
	// last bit of the products they enter.
	etaMax, n, lewis, maxIter, tol := 8.0, 121, 1.4, 400, 1e-8
	deta := etaMax / float64(n-1)
	eta := make([]float64, n)
	for i := range eta {
		eta[i] = float64(i) * deta
	}

	// Split edge enthalpy into sensible + chemical parts.
	hf := m.HFormation(edge.Y)
	hse := edge.H - hf // sensible edge enthalpy (includes the kinetic-energy
	// recovery already folded into H at a stagnation point)
	hsw := m.Enthalpy(wallT, edge.Y) - hf
	if hse <= hsw {
		return nil, fmt.Errorf("blayer: edge enthalpy below wall enthalpy")
	}
	// Atom content of the edge gas (mass fraction of dissociated species).
	cAtomE := 0.0
	hDissE := 0.0
	for i, sp := range m.Species {
		if len(sp.Elems) >= 1 && !sp.IsMolecule() && sp.Name != "e-" {
			cAtomE += edge.Y[i]
			hDissE += edge.Y[i] * sp.Hf0
		}
	}

	// Property closure: T, rho, mu from sensible enthalpy at edge pressure
	// with frozen edge composition.
	muE := tr.Viscosity(edge.T, edge.Y)
	rhoMuE := edge.Rho * muE
	propAt := func(g float64) (C, rhoRatio, pr float64, err error) {
		hs := hsw + g*(hse-hsw)
		T, err := m.TemperatureFromH(hs+hf, edge.Y, edge.T*math.Max(g, 0.05))
		if err != nil {
			return 0, 0, 0, err
		}
		rho := m.Density(edge.P, T, edge.Y)
		mu, k := tr.ViscosityConductivity(T, edge.Y)
		pr = transport.FrozenPrandtl(tr.Mix.Cp(T, edge.Y), mu, k)
		if pr <= 0.3 || pr > 2 {
			pr = 0.71
		}
		return rho * mu / rhoMuE, edge.Rho / rho, pr, nil
	}

	// Unknowns.
	F := make([]float64, n) // f'
	g := make([]float64, n)
	z := make([]float64, n)
	f := make([]float64, n)
	for i := range eta {
		x := eta[i] / 3
		if x > 1 {
			x = 1
		}
		F[i] = x * (2 - x) // smooth 0->1
		g[i] = x * (2 - x)
		z[i] = 1.0
	}
	g[0] = 0
	F[0] = 0

	// Wall catalycity: mixed BC z'(0) = B z(0).
	beta := VelocityGradient(edge, pInf, rn)
	rhow := m.Density(edge.P, wallT, edge.Y)
	var B float64
	if gammaW > 0 && cAtomE > 1e-12 {
		// Catalytic speed: kw = gammaW sqrt(kB Tw / (2 pi m_atom)); use an
		// effective atom (N/O blend) mass of 15 g/mol.
		mAtom := 15e-3 / thermo.NA
		kw := gammaW * math.Sqrt(thermo.KB*wallT/(2*math.Pi*mAtom))
		CwApprox := rhow * tr.Viscosity(wallT, edge.Y) / rhoMuE
		B = kw * rhow * 0.71 / (lewis * CwApprox * math.Sqrt(2*beta*rhoMuE))
	}

	C := make([]float64, n)
	rhoR := make([]float64, n)
	prA := make([]float64, n)
	aa := make([]float64, n)
	bb := make([]float64, n)
	cc := make([]float64, n)
	dd := make([]float64, n)
	work := numerics.NewTridiagWorkspace(n)

	// wallBC selects the wall condition of a transport equation: Dirichlet
	// phi(0)=Val, or mixed phi'(0) = B*phi(0) (B=0 is an insulated/Neumann
	// wall).
	type wallBC struct {
		dirichlet bool
		val       float64
		b         float64
	}
	solveTransport := func(phi []float64, coef []float64, bc wallBC) error {
		// (coef phi')' + f phi' = 0 on the uniform grid; phi(inf)=1.
		for i := 1; i < n-1; i++ {
			cp := 0.5 * (coef[i] + coef[i+1])
			cm := 0.5 * (coef[i] + coef[i-1])
			aa[i] = cm/(deta*deta) - f[i]/(2*deta)
			cc[i] = cp/(deta*deta) + f[i]/(2*deta)
			bb[i] = -(cp + cm) / (deta * deta)
			dd[i] = 0
		}
		if bc.dirichlet {
			bb[0] = 1
			cc[0] = 0
			aa[0] = 0
			dd[0] = bc.val
		} else {
			// (phi[1]-phi[0])/deta = B phi[0].
			bb[0] = -1/deta - bc.b
			cc[0] = 1 / deta
			aa[0] = 0
			dd[0] = 0
		}
		aa[n-1] = 0
		bb[n-1] = 1
		cc[n-1] = 0
		dd[n-1] = 1
		return work.Solve(aa, bb, cc, dd, phi)
	}
	speciesBC := wallBC{dirichlet: true, val: 0} // fully catalytic default
	if gammaW < 1 {
		speciesBC = wallBC{b: B} // mixed; B=0 means noncatalytic
	}

	coefG := make([]float64, n)
	coefZ := make([]float64, n)
	for iter := 0; iter < maxIter; iter++ {
		// Update properties.
		for i := 0; i < n; i++ {
			var err error
			C[i], rhoR[i], prA[i], err = propAt(numerics.Clamp(g[i], 0, 1.2))
			if err != nil {
				return nil, err
			}
			coefG[i] = C[i] / prA[i]
			coefZ[i] = C[i] * lewis / prA[i]
		}
		// f from F.
		f[0] = 0
		for i := 1; i < n; i++ {
			f[i] = f[i-1] + 0.5*(F[i]+F[i-1])*deta
		}
		// Momentum: (C F')' + f F' + (rhoR - F^2)/2 = 0, linearized
		// F^2 ~ 2 F_old F - F_old^2.
		for i := 1; i < n-1; i++ {
			cp := 0.5 * (C[i] + C[i+1])
			cm := 0.5 * (C[i] + C[i-1])
			aa[i] = cm/(deta*deta) - f[i]/(2*deta)
			cc[i] = cp/(deta*deta) + f[i]/(2*deta)
			bb[i] = -(cp+cm)/(deta*deta) - F[i]
			dd[i] = -0.5*rhoR[i] - 0.5*F[i]*F[i]
		}
		aa[0], bb[0], cc[0], dd[0] = 0, 1, 0, 0
		aa[n-1], bb[n-1], cc[n-1], dd[n-1] = 0, 1, 0, 1
		Fnew := make([]float64, n)
		if err := work.Solve(aa, bb, cc, dd, Fnew); err != nil {
			return nil, fmt.Errorf("blayer: momentum solve: %w", err)
		}
		dF := 0.0
		for i := range F {
			d := math.Abs(Fnew[i] - F[i])
			if d > dF {
				dF = d
			}
			F[i] = 0.5*F[i] + 0.5*Fnew[i] // under-relax
		}
		// Energy.
		gOld := append([]float64(nil), g...)
		if err := solveTransport(g, coefG, wallBC{dirichlet: true, val: 0}); err != nil {
			return nil, fmt.Errorf("blayer: energy solve: %w", err)
		}
		dg := 0.0
		for i := range g {
			d := math.Abs(g[i] - gOld[i])
			if d > dg {
				dg = d
			}
			g[i] = 0.5*gOld[i] + 0.5*g[i]
		}
		// Species (atoms) with catalytic wall.
		if cAtomE > 1e-12 {
			if err := solveTransport(z, coefZ, speciesBC); err != nil {
				return nil, fmt.Errorf("blayer: species solve: %w", err)
			}
		}
		if dF < tol && dg < tol {
			break
		}
	}

	gp0 := (g[1] - g[0]) / deta
	zp0 := (z[1] - z[0]) / deta
	// Wall heat flux: conduction + recombination of diffused atoms.
	Cw := C[0]
	prW := prA[0]
	qCond := Cw / prW * gp0 * (hse - hsw) * math.Sqrt(2*beta*rhoMuE)
	hD := 0.0
	if cAtomE > 1e-12 {
		hD = hDissE // J/kg of mixture carried as dissociation enthalpy
	}
	qRec := Cw * lewis / prW * zp0 * hD * math.Sqrt(2*beta*rhoMuE)
	// Physical coordinate: dy = (rho_e/rho) deta / sqrt(2 beta rho_e/mu_e).
	scale := 1 / math.Sqrt(2*beta*edge.Rho/muE)
	yPhys := make([]float64, n)
	delta := 0.0
	deltaSet := false
	for i := 1; i < n; i++ {
		yPhys[i] = yPhys[i-1] + 0.5*(rhoR[i]+rhoR[i-1])*deta*scale
		if !deltaSet && g[i] > 0.99 {
			delta = yPhys[i]
			deltaSet = true
		}
	}
	if !deltaSet {
		delta = yPhys[n-1]
	}
	return &SimilaritySolution{
		Eta: eta, YPhys: yPhys, F: F, G: g, Z: z,
		GPrime0: gp0, ZPrime0: zp0,
		QWall:          qCond + qRec,
		QConduction:    qCond,
		QRecombination: qRec,
		Delta:          delta,
	}, nil
}
