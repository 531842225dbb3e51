package numerics

import "math"

// TrapzSlice integrates tabulated ordinates y over abscissae x by the
// trapezoidal rule. The slices must have equal length >= 2.
func TrapzSlice(x, y []float64) float64 {
	s := 0.0
	for i := 1; i < len(x); i++ {
		s += 0.5 * (y[i] + y[i-1]) * (x[i] - x[i-1])
	}
	return s
}

// E1 returns the exponential integral E1(x) for x > 0.
// Abramowitz & Stegun 5.1.53/5.1.56 rational approximations.
func E1(x float64) float64 {
	if x <= 0 {
		return math.Inf(1)
	}
	if x < 1 {
		// Series: E1 = -gamma - ln x + sum (-1)^{n+1} x^n / (n n!)
		const gamma = 0.5772156649015329
		sum := 0.0
		term := 1.0
		for n := 1; n <= 30; n++ {
			term *= -x / float64(n)
			add := -term / float64(n)
			sum += add
			if math.Abs(add) < 1e-16*math.Abs(sum) {
				break
			}
		}
		return -gamma - math.Log(x) + sum
	}
	// Continued-fraction style rational approximation (A&S 5.1.56).
	num := x*x + 2.334733*x + 0.250621
	den := x*x + 3.330657*x + 1.681534
	return num / den * math.Exp(-x) / x
}

// E2 returns the exponential integral E2(x) = exp(-x) - x*E1(x).
func E2(x float64) float64 {
	if x == 0 {
		return 1
	}
	if x < 0 {
		return math.NaN()
	}
	return math.Exp(-x) - x*E1(x)
}

// E3 returns the exponential integral E3(x) = (exp(-x) - x*E2(x)) / 2.
func E3(x float64) float64 {
	if x == 0 {
		return 0.5
	}
	if x < 0 {
		return math.NaN()
	}
	return 0.5 * (math.Exp(-x) - x*E2(x))
}

// Linspace returns n evenly spaced points from a to b inclusive.
func Linspace(a, b float64, n int) []float64 {
	if n == 1 {
		return []float64{a}
	}
	out := make([]float64, n)
	d := (b - a) / float64(n-1)
	for i := range out {
		out[i] = a + float64(i)*d
	}
	out[n-1] = b
	return out
}

// Logspace returns n log-evenly spaced points from a to b inclusive (a,b>0).
func Logspace(a, b float64, n int) []float64 {
	la, lb := math.Log(a), math.Log(b)
	out := Linspace(la, lb, n)
	for i := range out {
		out[i] = math.Exp(out[i])
	}
	return out
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
