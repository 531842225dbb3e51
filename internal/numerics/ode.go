package numerics

import (
	"fmt"
	"math"
)

// ODEFunc evaluates dy/dx into dydx for state y at coordinate x.
type ODEFunc func(x float64, y, dydx []float64)

// RKF45Options configures the adaptive integrator.
type RKF45Options struct {
	RelTol, AbsTol float64 // default 1e-8, 1e-10
	HInit, HMin    float64
	MaxSteps       int                               // default 100000
	Monitor        func(x float64, y []float64)      // called after each accepted step
	Stop           func(x float64, y []float64) bool // early-exit predicate
}

// RKF45 integrates dy/dx = f from x0 to x1 with adaptive Runge-Kutta-Fehlberg
// 4(5) steps. y is advanced in place. Returns the final x reached.
func RKF45(f ODEFunc, x0, x1 float64, y []float64, opts RKF45Options) (float64, error) {
	n := len(y)
	rel := opts.RelTol
	if rel == 0 {
		rel = 1e-8
	}
	abs := opts.AbsTol
	if abs == 0 {
		abs = 1e-10
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = 100000
	}
	dir := 1.0
	if x1 < x0 {
		dir = -1.0
	}
	h := opts.HInit
	if h == 0 {
		h = (x1 - x0) / 100
	}
	if h*dir <= 0 {
		h = dir * math.Abs(h)
	}
	hmin := opts.HMin
	if hmin == 0 {
		hmin = math.Abs(x1-x0) * 1e-14
	}

	k1 := make([]float64, n)
	k2 := make([]float64, n)
	k3 := make([]float64, n)
	k4 := make([]float64, n)
	k5 := make([]float64, n)
	k6 := make([]float64, n)
	yt := make([]float64, n)
	y5 := make([]float64, n)

	x := x0
	for step := 0; step < maxSteps; step++ {
		if dir*(x-x1) >= 0 {
			return x, nil
		}
		if dir*(x+h-x1) > 0 {
			h = x1 - x
		}
		f(x, y, k1)
		for i := 0; i < n; i++ {
			yt[i] = y[i] + h*(1.0/4.0)*k1[i]
		}
		f(x+h/4, yt, k2)
		for i := 0; i < n; i++ {
			yt[i] = y[i] + h*(3.0/32.0*k1[i]+9.0/32.0*k2[i])
		}
		f(x+3*h/8, yt, k3)
		for i := 0; i < n; i++ {
			yt[i] = y[i] + h*(1932.0/2197.0*k1[i]-7200.0/2197.0*k2[i]+7296.0/2197.0*k3[i])
		}
		f(x+12*h/13, yt, k4)
		for i := 0; i < n; i++ {
			yt[i] = y[i] + h*(439.0/216.0*k1[i]-8.0*k2[i]+3680.0/513.0*k3[i]-845.0/4104.0*k4[i])
		}
		f(x+h, yt, k5)
		for i := 0; i < n; i++ {
			yt[i] = y[i] + h*(-8.0/27.0*k1[i]+2.0*k2[i]-3544.0/2565.0*k3[i]+1859.0/4104.0*k4[i]-11.0/40.0*k5[i])
		}
		f(x+h/2, yt, k6)

		errNorm := 0.0
		for i := 0; i < n; i++ {
			y4 := y[i] + h*(25.0/216.0*k1[i]+1408.0/2565.0*k3[i]+2197.0/4104.0*k4[i]-1.0/5.0*k5[i])
			y5[i] = y[i] + h*(16.0/135.0*k1[i]+6656.0/12825.0*k3[i]+28561.0/56430.0*k4[i]-9.0/50.0*k5[i]+2.0/55.0*k6[i])
			sc := abs + rel*math.Max(math.Abs(y[i]), math.Abs(y5[i]))
			e := (y5[i] - y4) / sc
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(n))
		if errNorm <= 1 || math.Abs(h) <= hmin {
			x += h
			copy(y, y5)
			if opts.Monitor != nil {
				opts.Monitor(x, y)
			}
			if opts.Stop != nil && opts.Stop(x, y) {
				return x, nil
			}
		}
		// PI-style step adjustment with safety factor.
		fac := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -0.2)
		fac = math.Min(4, math.Max(0.1, fac))
		h *= fac
		if math.Abs(h) < hmin {
			h = dir * hmin
		}
	}
	return x, fmt.Errorf("numerics: RKF45 exceeded %d steps at x=%g", maxSteps, x)
}

// StiffStepper integrates stiff systems dy/dt = f(y) with a linearly implicit
// (semi-implicit backward Euler) method: (I - h J) dy = h f(y). The Jacobian
// is recomputed by finite differences each step. Intended for chemistry
// source-term relaxation where explicit integrators would need prohibitively
// small steps.
type StiffStepper struct {
	n     int
	f     func(y, dydt []float64)
	J     []float64
	A     []float64
	dy    []float64
	fy    []float64
	ypt   []float64
	fpt   []float64
	piv   []int
	FDRel float64
}

// NewStiffStepper creates a stepper for an n-dimensional autonomous system.
func NewStiffStepper(n int, f func(y, dydt []float64)) *StiffStepper {
	return &StiffStepper{
		n: n, f: f,
		J:     make([]float64, n*n),
		A:     make([]float64, n*n),
		dy:    make([]float64, n),
		fy:    make([]float64, n),
		ypt:   make([]float64, n),
		fpt:   make([]float64, n),
		piv:   make([]int, n),
		FDRel: 1e-7,
	}
}

// Step advances y by one semi-implicit step of size h.
func (s *StiffStepper) Step(y []float64, h float64) error {
	n := s.n
	s.f(y, s.fy)
	// Finite-difference Jacobian J = df/dy.
	for j := 0; j < n; j++ {
		copy(s.ypt, y)
		d := s.FDRel * (math.Abs(y[j]) + 1e-30)
		s.ypt[j] += d
		s.f(s.ypt, s.fpt)
		inv := 1.0 / d
		for i := 0; i < n; i++ {
			s.J[i*n+j] = (s.fpt[i] - s.fy[i]) * inv
		}
	}
	// A = I - h J, rhs = h f(y).
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := -h * s.J[i*n+j]
			if i == j {
				v += 1
			}
			s.A[i*n+j] = v
		}
		s.dy[i] = h * s.fy[i]
	}
	if err := SolveDenseInPlace(s.A, s.dy, s.piv, n); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		y[i] += s.dy[i]
	}
	return nil
}

// Integrate advances y from t=0 to t=tEnd with adaptive step doubling:
// a step is accepted when two half steps agree with one full step.
func (s *StiffStepper) Integrate(y []float64, tEnd float64, relTol float64) error {
	if relTol == 0 {
		relTol = 1e-5
	}
	t := 0.0
	h := tEnd / 50
	yFull := make([]float64, s.n)
	yHalf := make([]float64, s.n)
	for iter := 0; iter < 200000 && t < tEnd; iter++ {
		if t+h > tEnd {
			h = tEnd - t
		}
		copy(yFull, y)
		if err := s.Step(yFull, h); err != nil {
			return err
		}
		copy(yHalf, y)
		if err := s.Step(yHalf, h/2); err != nil {
			return err
		}
		if err := s.Step(yHalf, h/2); err != nil {
			return err
		}
		errNorm := 0.0
		for i := 0; i < s.n; i++ {
			sc := math.Abs(yHalf[i]) + 1e-12
			e := math.Abs(yHalf[i]-yFull[i]) / sc
			if e > errNorm {
				errNorm = e
			}
		}
		if errNorm < relTol {
			copy(y, yHalf)
			t += h
			if errNorm < relTol/8 {
				h *= 2
			}
		} else {
			h /= 2
			if h < tEnd*1e-12 {
				return fmt.Errorf("numerics: stiff step underflow at t=%g", t)
			}
		}
	}
	if t < tEnd {
		return fmt.Errorf("numerics: stiff integration incomplete (t=%g of %g)", t, tEnd)
	}
	return nil
}
