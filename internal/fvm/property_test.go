package fvm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: the HLLE flux is rotation-consistent — the face-normal mass and
// energy fluxes and the normal/tangential momentum projections are invariant
// under rotating both states and the face by the same angle.
func TestHLLERotationInvariance(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Prim {
			rho := 0.1 + r.Float64()*2
			p := 1e3 + r.Float64()*1e5
			T := 200 + r.Float64()*2000
			return Prim{
				Rho: rho,
				U:   r.Float64()*2000 - 1000,
				V:   r.Float64()*2000 - 1000,
				P:   p, T: T,
				A: math.Sqrt(1.4 * p / rho),
				E: p / (0.4 * rho),
			}
		}
		L, R := mk(), mk()
		th := r.Float64() * 2 * math.Pi
		c, s := math.Cos(th), math.Sin(th)
		rot := func(q Prim) Prim {
			q.U, q.V = c*q.U-s*q.V, s*q.U+c*q.V
			return q
		}
		// Face along +x in the original frame with |S| = 1.3.
		f0 := faceFlux(hlleKernel{}, L, R, 1, 0, 1.3)
		f1 := faceFlux(hlleKernel{}, rot(L), rot(R), c, s, 1.3)
		// Mass and energy components are scalars.
		if math.Abs(f0[0]-f1[0]) > 1e-8*(math.Abs(f0[0])+1) {
			return false
		}
		if math.Abs(f0[3]-f1[3]) > 1e-7*(math.Abs(f0[3])+1) {
			return false
		}
		// Momentum rotates as a vector.
		mx := c*f0[1] - s*f0[2]
		my := s*f0[1] + c*f0[2]
		return math.Abs(mx-f1[1]) < 1e-7*(math.Abs(mx)+1) &&
			math.Abs(my-f1[2]) < 1e-7*(math.Abs(my)+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// Property: the production MUSCL reconstruction (reconFace) preserves
// positivity of density and pressure and, under every limiter, stays within
// the local data bounds for monotone data.
func TestReconstructBounded(t *testing.T) {
	for _, name := range Limiters() {
		t.Run(name, func(t *testing.T) {
			s := &Solver{limKind: limiterTable[name]}
			ws := &batchWS{L: newFaceStates(1), R: newFaceStates(1)}
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				mk := func(base float64) Prim {
					return Prim{
						Rho: base, P: base * 1e4,
						U: base * 100, V: 0,
						A: 300, E: 1e5, T: 300,
					}
				}
				// Monotone increasing sequence.
				v := []float64{0.5 + r.Float64(), 0, 0, 0}
				for i := 1; i < 4; i++ {
					v[i] = v[i-1] * (1 + r.Float64())
				}
				qmm, qm, qp, qpp := mk(v[0]), mk(v[1]), mk(v[2]), mk(v[3])
				s.reconFace(ws, 0, &qmm, &qm, &qp, &qpp)
				lRho, rRho := ws.L.Rho[0], ws.R.Rho[0]
				if lRho <= 0 || rRho <= 0 || ws.L.P[0] <= 0 || ws.R.P[0] <= 0 {
					return false
				}
				// Both limiters keep reconstructed values within neighbor bounds.
				return lRho >= v[1]-1e-12 && lRho <= v[2]+1e-12 &&
					rRho >= v[1]-1e-12 && rRho <= v[2]+1e-12
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(29))}); err != nil {
				t.Error(err)
			}
		})
	}
}

// Pressure-only wall: verify via the mirrored HLLE construction directly.
func TestMirroredWallNoMassFlux(t *testing.T) {
	q := Prim{Rho: 1, U: 200, V: 100, P: 1e5, T: 300, A: 340, E: 2.5e5}
	g := mirror(q, 0, 1) // unit face normal +y
	f := faceFlux(hlleKernel{}, g, q, 0, 1, 2)
	if math.Abs(f[0]) > 1e-8*q.Rho*q.A {
		t.Errorf("wall mass flux %g", f[0])
	}
	// Pressure appears in the y-momentum component.
	if f[2] < 0.5*q.P {
		t.Errorf("wall pressure force %g missing", f[2])
	}
}
