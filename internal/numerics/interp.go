package numerics

import (
	"math"
	"sort"
)

// LinearInterp returns f(x) by piecewise-linear interpolation of the sorted
// abscissae xs with ordinates ys. Outside the range the end values are
// extrapolated linearly from the boundary segment.
func LinearInterp(xs, ys []float64, x float64) float64 {
	n := len(xs)
	if n == 1 {
		return ys[0]
	}
	i := sort.SearchFloat64s(xs, x)
	if i <= 0 {
		i = 1
	}
	if i >= n {
		i = n - 1
	}
	x0, x1 := xs[i-1], xs[i]
	y0, y1 := ys[i-1], ys[i]
	if x1 == x0 {
		return y0
	}
	t := (x - x0) / (x1 - x0)
	return y0 + t*(y1-y0)
}

// Stretch1D returns n points in [0,1] clustered toward s=0 with Roberts-type
// stretching. beta>1; beta→1 gives strong clustering, large beta is uniform.
func Stretch1D(n int, beta float64) []float64 {
	pts := make([]float64, n)
	bp := (beta + 1) / (beta - 1)
	for i := 0; i < n; i++ {
		eta := float64(i) / float64(n-1)
		p := math.Pow(bp, 1-eta)
		pts[i] = (beta + 1 - (beta-1)*p) / (p + 1)
	}
	pts[0] = 0
	pts[n-1] = 1
	return pts
}
