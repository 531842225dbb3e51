package radiation

import (
	"math"

	"cataero/internal/numerics"
)

// Layer is one slice of a radiating plane slab.
type Layer struct {
	Thickness float64   // m
	T         float64   // heavy-particle temperature, K
	Tex       float64   // excitation temperature (Tv), K
	N         []float64 // species number densities, 1/m^3
}

// SlabResult is the tangent-slab transport solution.
type SlabResult struct {
	QWall         float64   // wall-directed radiative flux, W/m^2
	QOut          float64   // outward (shockward) flux, W/m^2
	WallSpectrumI []float64 // wall-directed spectral intensity, W/(m^2 sr m)
	LambdaNm      []float64
}

// SolveSlab performs tangent-slab radiative transport through the layers
// (layer 0 adjacent to the wall) for the model's wavelength grid:
//
//	q-(0) = 2 pi integral_0^tau0 S(t) E2(t) dt
//
// with the source function S = j/kappa and kappa from Kirchhoff's law at the
// local source temperature. Optically thin layers reduce to 2 pi j dz; thick
// slabs saturate at the blackbody flux.
func (md *Model) SolveSlab(layers []Layer) SlabResult {
	nl := len(md.LambdaNm)
	nk := len(layers)
	res := SlabResult{
		WallSpectrumI: make([]float64, nl),
		LambdaNm:      md.LambdaNm,
	}
	if nk == 0 {
		return res
	}
	// Per-layer emission and absorption at each wavelength.
	j := make([][]float64, nk)
	kap := make([][]float64, nk)
	for k, ly := range layers {
		j[k] = make([]float64, nl)
		kap[k] = make([]float64, nl)
		md.Emission(ly.N, ly.T, ly.Tex, j[k])
		for i := range j[k] {
			// Kirchhoff at the excitation temperature that produced the
			// emission; floor kappa to keep the thin limit well-behaved.
			B := PlanckLambda(md.LambdaNm[i]*1e-9, math.Max(ly.Tex, 300))
			if B > 0 {
				kap[k][i] = j[k][i] / B
			}
		}
	}
	// Wall-directed flux wavelength by wavelength.
	qspec := make([]float64, nl)
	for i := 0; i < nl; i++ {
		// Optical depth from the wall outward.
		tau := 0.0
		qw := 0.0
		iw := 0.0
		for k := 0; k < nk; k++ {
			dtau := kap[k][i] * layers[k].Thickness
			var S float64
			if kap[k][i] > 1e-30 {
				S = j[k][i] / kap[k][i]
			}
			if dtau < 1e-8 {
				// Optically thin layer: contribution 2 pi j dz E2(tau).
				qw += 2 * math.Pi * j[k][i] * layers[k].Thickness * numerics.E2(tau)
				iw += j[k][i] * layers[k].Thickness * math.Exp(-tau)
			} else {
				// Constant-S layer between tau and tau+dtau:
				// 2 pi S [E3(tau) - E3(tau+dtau)].
				qw += 2 * math.Pi * S * (numerics.E3(tau) - numerics.E3(tau+dtau))
				iw += S * (1 - math.Exp(-dtau)) * math.Exp(-tau)
			}
			tau += dtau
		}
		res.WallSpectrumI[i] = iw
		qspec[i] = qw
	}
	for i := 1; i < nl; i++ {
		dl := (md.LambdaNm[i] - md.LambdaNm[i-1]) * 1e-9
		res.QWall += 0.5 * (qspec[i] + qspec[i-1]) * dl
	}
	// Symmetric slab: outward flux equals wall flux for a symmetric layer
	// stack; report the same integral (callers with asymmetric stacks can
	// reverse the layers).
	res.QOut = res.QWall
	return res
}

// UniformSlab builds n identical layers of total thickness d.
func UniformSlab(n int, d, T, tex float64, nden []float64) []Layer {
	layers := make([]Layer, n)
	for i := range layers {
		layers[i] = Layer{Thickness: d / float64(n), T: T, Tex: tex, N: nden}
	}
	return layers
}

// OpticallyThinFlux returns the thin-limit wall flux 2 pi sum j dz
// integrated over wavelength; an upper bound and useful cross-check.
func (md *Model) OpticallyThinFlux(layers []Layer) float64 {
	nl := len(md.LambdaNm)
	jl := make([]float64, nl)
	tot := make([]float64, nl)
	for _, ly := range layers {
		md.Emission(ly.N, ly.T, ly.Tex, jl)
		for i := range tot {
			tot[i] += 2 * math.Pi * jl[i] * ly.Thickness
		}
	}
	s := 0.0
	for i := 1; i < nl; i++ {
		dl := (md.LambdaNm[i] - md.LambdaNm[i-1]) * 1e-9
		s += 0.5 * (tot[i] + tot[i-1]) * dl
	}
	return s
}
