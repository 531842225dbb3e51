package numerics

import "math"

// luFactor performs in-place LU factorization with partial pivoting of the
// m×m row-major matrix a, recording in piv[k] the row exchanged with k at
// step k. A swap moves only columns k and up: the multipliers already
// stored left of column k stay in the row order they were computed in,
// which is the order luSolveVec meets them in, since it applies each swap
// just before that step's elimination.
func luFactor(a []float64, piv []int, m int) error {
	for k := 0; k < m; k++ {
		// Pivot search.
		p := k
		max := math.Abs(a[k*m+k])
		for i := k + 1; i < m; i++ {
			if v := math.Abs(a[i*m+k]); v > max {
				max, p = v, i
			}
		}
		if max == 0 {
			return ErrSingular
		}
		piv[k] = p
		if p != k {
			// Columns k and up only; see the doc comment.
			for j := k; j < m; j++ {
				a[k*m+j], a[p*m+j] = a[p*m+j], a[k*m+j]
			}
		}
		inv := 1.0 / a[k*m+k]
		for i := k + 1; i < m; i++ {
			l := a[i*m+k] * inv
			a[i*m+k] = l
			for j := k + 1; j < m; j++ {
				a[i*m+j] -= l * a[k*m+j]
			}
		}
	}
	return nil
}

// luSolveVec solves LU x = b in place (b is overwritten with x) using the
// factorization and pivots from luFactor.
func luSolveVec(lu []float64, piv []int, b []float64, m int) {
	for k := 0; k < m; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		for i := k + 1; i < m; i++ {
			b[i] -= lu[i*m+k] * b[k]
		}
	}
	for i := m - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < m; j++ {
			s -= lu[i*m+j] * b[j]
		}
		b[i] = s / lu[i*m+i]
	}
}

// SolveDense solves the dense n×n system A x = b by LU factorization with
// partial pivoting. A and b are not modified; the solution is returned. It
// allocates, so it serves the tests as the reference solve; solvers call
// SolveDenseInPlace.
func SolveDense(A []float64, b []float64, n int) ([]float64, error) {
	lu := make([]float64, n*n)
	copy(lu, A)
	piv := make([]int, n)
	if err := luFactor(lu, piv, n); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	copy(x, b)
	luSolveVec(lu, piv, x, n)
	return x, nil
}

// SolveDenseInPlace solves A x = b destroying A and overwriting b with the
// solution. piv must have length n. It avoids all allocation.
func SolveDenseInPlace(A, b []float64, piv []int, n int) error {
	if err := luFactor(A, piv, n); err != nil {
		return err
	}
	luSolveVec(A, piv, b, n)
	return nil
}

// NormInf returns the maximum absolute entry of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}
