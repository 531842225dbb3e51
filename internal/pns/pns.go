// Package pns implements the space-marching parabolized solver class of the
// paper (Gnoffo / Prabhu-Tannehill lineage) in its windward-centerline
// reduction: the nonsimilar viscous-layer equations in Levy-Lees variables
// marched downstream under an imposed (modified-Newtonian + isentrope) edge
// pressure field, with equilibrium or ideal gas property closures. The
// stagnation station is the similarity limit; each downstream station solves
// implicit tridiagonal systems for momentum and total enthalpy with
// backward-difference marching terms. Output is the windward-centerline
// heating distribution of the paper's Fig. 6.
package pns

import (
	"context"
	"fmt"
	"math"

	"cataero/internal/blayer"
	"cataero/internal/numerics"
)

// Props maps (p, h_static) to density and viscosity. Closures are provided
// for equilibrium air and ideal gas in closure.go.
type Props func(p, h float64) (rho, mu float64, err error)

// StationResult is the converged solution at one marching station.
type StationResult struct {
	S     float64 // arc length, m
	Q     float64 // wall heat flux, W/m^2
	Cf    float64 // skin-friction coefficient (edge dynamic pressure)
	GP0   float64 // wall enthalpy gradient in eta
	Edge  blayer.EdgeState
	Theta float64 // momentum-thickness-like integral, m
}

// March runs the parabolized space-march along the edge-state sequence
// (station 0 must be the stagnation point). hw is the wall static enthalpy,
// H0 the total (stagnation) enthalpy of the edge streamline. The context is
// polled between marching stations; cancellation aborts with ctx.Err().
// progress, when non-nil, is invoked after each converged marching station
// with (station, total); it runs on the marching goroutine and must be
// cheap.
func March(ctx context.Context, edges []blayer.EdgeState, props Props, hw, h0 float64, rn float64, pInf float64, progress func(station, total int)) ([]StationResult, error) {
	if len(edges) < 3 {
		return nil, fmt.Errorf("pns: need at least 3 stations")
	}
	// The wall-normal grid (eta in [0, etaMax] on n points), the Prandtl
	// number and each station's relaxation sweep cap and tolerance. They
	// stay variables: a constant expression such as 1 - 1/pr folds with
	// exact arithmetic and could move the last bit.
	etaMax, n, pr, maxIter, tol := 8.0, 101, 0.71, 80, 1e-7
	deta := etaMax / float64(n-1)

	// Station-invariant work arrays.
	F := make([]float64, n)    // f' = u/ue
	g := make([]float64, n)    // (H - Hw)/(He - Hw), H total enthalpy
	f := make([]float64, n)    // stream function
	Fp := make([]float64, n)   // previous station F
	gp := make([]float64, n)   // previous station g
	C := make([]float64, n)    // Chapman-Rubesin rho*mu/(rho_e mu_e)
	rhoR := make([]float64, n) // rho_e/rho
	aa := make([]float64, n)
	bb := make([]float64, n)
	cc := make([]float64, n)
	dd := make([]float64, n)
	Fnew := make([]float64, n) // a relaxation sweep's momentum solve
	gNew := make([]float64, n) // ... and its energy solve
	work := numerics.NewTridiagWorkspace(n)

	// Initialize profiles (stagnation shape).
	for i := 0; i < n; i++ {
		x := math.Min(float64(i)*deta/3, 1)
		F[i] = x * (2 - x)
		g[i] = x * (2 - x)
	}

	// xi and beta along the march.
	xi := 0.0
	var results []StationResult

	solveStation := func(k int, xiK, dXi, beta float64, e blayer.EdgeState) error {
		HwE := hw // static wall enthalpy ~ total at the wall (u=0)
		dH := h0 - HwE
		if dH <= 0 {
			return fmt.Errorf("pns: wall hotter than total enthalpy")
		}
		rhoE, muE, err := props(e.P, e.H)
		if err != nil {
			return err
		}
		for iter := 0; iter < maxIter; iter++ {
			// A station's relaxation sweeps dominate the march when the
			// property closure is an equilibrium solve; poll so cancellation
			// lands mid-station, not only between stations.
			if err := ctx.Err(); err != nil {
				return err
			}
			// Property update from current profiles.
			for i := 0; i < n; i++ {
				H := HwE + numerics.Clamp(g[i], 0, 1.05)*dH
				hStat := H - 0.5*(e.Ue*F[i])*(e.Ue*F[i])
				if hStat < 0.2*HwE {
					hStat = 0.2 * HwE
				}
				rho, mu, err := props(e.P, hStat)
				if err != nil {
					return err
				}
				C[i] = rho * mu / (rhoE * muE)
				rhoR[i] = rhoE / rho
			}
			// f from F.
			f[0] = 0
			for i := 1; i < n; i++ {
				f[i] = f[i-1] + 0.5*(F[i]+F[i-1])*deta
			}
			// Marching derivative factors (zero at the stagnation station).
			var m2x float64
			if dXi > 0 {
				m2x = 2 * xiK / dXi
			}
			// Momentum: (C F')' + f F' + beta(rhoR - F^2)
			//            = m2x [ F (F - Fp) - F' (f - fp) ].
			for i := 1; i < n-1; i++ {
				cp := 0.5 * (C[i] + C[i+1])
				cm := 0.5 * (C[i] + C[i-1])
				aa[i] = cm/(deta*deta) - f[i]/(2*deta)
				cc[i] = cp/(deta*deta) + f[i]/(2*deta)
				bb[i] = -(cp+cm)/(deta*deta) - beta*F[i] - m2x*F[i]
				dd[i] = -beta*rhoR[i] - beta*F[i]*F[i] - m2x*F[i]*Fp[i]
			}
			// The (f - fp) streamwise term is carried implicitly by using
			// the updated f in the convective coefficient; this is the
			// standard Blottner simplification for attached layers.
			aa[0], bb[0], cc[0], dd[0] = 0, 1, 0, 0
			aa[n-1], bb[n-1], cc[n-1], dd[n-1] = 0, 1, 0, 1
			if err := work.Solve(aa, bb, cc, dd, Fnew); err != nil {
				return fmt.Errorf("pns: momentum at station %d: %w", k, err)
			}
			dF := 0.0
			for i := range F {
				if d := math.Abs(Fnew[i] - F[i]); d > dF {
					dF = d
				}
				F[i] = 0.6*F[i] + 0.4*Fnew[i]
			}
			// Energy: (C/Pr g')' + f g' + [dissipation]' = m2x F (g - gp).
			for i := 1; i < n-1; i++ {
				cpE := 0.5 * (C[i] + C[i+1]) / pr
				cmE := 0.5 * (C[i] + C[i-1]) / pr
				aa[i] = cmE/(deta*deta) - f[i]/(2*deta)
				cc[i] = cpE/(deta*deta) + f[i]/(2*deta)
				bb[i] = -(cpE+cmE)/(deta*deta) - m2x*F[i]
				// Viscous dissipation source d/deta[C(1-1/Pr)(ue^2/dH) F F'].
				dis := func(j int) float64 {
					if j < 1 || j > n-2 {
						return 0
					}
					Fpr := (F[j+1] - F[j-1]) / (2 * deta)
					return C[j] * (1 - 1/pr) * e.Ue * e.Ue / dH * F[j] * Fpr
				}
				ddis := (dis(i+1) - dis(i-1)) / (2 * deta)
				dd[i] = -ddis - m2x*F[i]*gp[i]
			}
			aa[0], bb[0], cc[0], dd[0] = 0, 1, 0, 0
			aa[n-1], bb[n-1], cc[n-1], dd[n-1] = 0, 1, 0, 1
			if err := work.Solve(aa, bb, cc, dd, gNew); err != nil {
				return fmt.Errorf("pns: energy at station %d: %w", k, err)
			}
			dg := 0.0
			for i := range g {
				if d := math.Abs(gNew[i] - g[i]); d > dg {
					dg = d
				}
				g[i] = 0.6*g[i] + 0.4*gNew[i]
			}
			if dF < tol && dg < tol {
				break
			}
		}
		// Wall flux: q = (C/Pr) g'(0) dH * rho_e mu_e u_e r / sqrt(2 xi);
		// at the stagnation station use the velocity-gradient limit.
		gp0 := (g[1] - g[0]) / deta
		var scale float64
		if k == 0 {
			dp := math.Max(e.P-pInf, 0.5*e.P)
			betaVel := math.Sqrt(2*dp/rhoE) / rn
			scale = math.Sqrt(2 * betaVel * rhoE * muE)
		} else {
			scale = rhoE * muE * e.Ue * e.R / math.Sqrt(2*xiK)
		}
		q := C[0] / pr * gp0 * dH * scale
		fp0 := (F[1] - F[0]) / deta
		cf := 2 * C[0] * fp0 * scale / (rhoE * math.Max(e.Ue, 1) * math.Max(e.Ue, 1) / math.Max(e.Ue, 1))
		// Momentum-thickness-like integral in eta units.
		th := 0.0
		for i := 1; i < n; i++ {
			th += 0.5 * ((F[i] * (1 - F[i])) + (F[i-1] * (1 - F[i-1]))) * deta
		}
		results = append(results, StationResult{
			S: e.S, Q: q, Cf: cf, GP0: gp0, Edge: e, Theta: th,
		})
		return nil
	}

	// Stagnation station.
	if err := solveStation(0, 0, 0, 0.5, edges[0]); err != nil {
		return nil, err
	}
	if progress != nil {
		progress(1, len(edges))
	}
	copy(Fp, F)
	copy(gp, g)

	for k := 1; k < len(edges); k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a, b := edges[k-1], edges[k]
		fa := a.Rho * a.Mu * a.Ue * a.R * a.R
		fb := b.Rho * b.Mu * b.Ue * b.R * b.R
		var dXi float64
		if k == 1 {
			dXi = fb * (b.S - a.S) / 4 // s^3 power-law start
		} else {
			dXi = 0.5 * (fa + fb) * (b.S - a.S)
		}
		xi += dXi
		// beta = 2 xi u_e'(s) / (u_e dxi/ds).
		due := (b.Ue - a.Ue) / (b.S - a.S)
		dxids := math.Max(fb, 1e-30)
		beta := 2 * xi * due / (math.Max(b.Ue, 1) * dxids)
		beta = numerics.Clamp(beta, -2, 2)
		if err := solveStation(k, xi, dXi, beta, b); err != nil {
			return nil, err
		}
		if progress != nil {
			progress(k+1, len(edges))
		}
		copy(Fp, F)
		copy(gp, g)
	}
	return results, nil
}
