// Package numerics provides the numerical kernels the cataero solvers share:
// one solver per linear system (the scalar Thomas algorithm, the 4×4
// block-tridiagonal line solve of the implicit flow solver and dense LU),
// adaptive Runge-Kutta-Fehlberg integration, Brent root finding, linear
// interpolation and grid stretching, trapezoidal quadrature and the
// exponential integrals of slab radiation. The stiff stepper and the
// allocating dense solve are the oracles the tests check production code
// against. All routines operate on float64 slices, and the workspaces let
// inner solver loops run without allocating.
package numerics

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system is detected to be singular or
// numerically indistinguishable from singular.
var ErrSingular = errors.New("numerics: singular matrix")

// TridiagWorkspace holds reusable scratch arrays for repeated tridiagonal
// solves of the same size, avoiding per-solve allocation in relaxation loops.
type TridiagWorkspace struct {
	cp, dp []float64
}

// NewTridiagWorkspace returns a workspace for systems of size n.
func NewTridiagWorkspace(n int) *TridiagWorkspace {
	return &TridiagWorkspace{cp: make([]float64, n), dp: make([]float64, n)}
}

// Solve solves the tridiagonal system with sub-diagonal a, diagonal b,
// super-diagonal c and right-hand side d by the Thomas algorithm, writing
// the solution into x, which may alias d. a[0] and c[n-1] are ignored. All
// slices must have length n; the scratch grows on demand.
func (w *TridiagWorkspace) Solve(a, b, c, d, x []float64) error {
	n := len(b)
	if len(a) != n || len(c) != n || len(d) != n || len(x) != n {
		return fmt.Errorf("numerics: tridiag length mismatch (n=%d)", n)
	}
	if len(w.cp) < n {
		w.cp = make([]float64, n)
		w.dp = make([]float64, n)
	}
	cp, dp := w.cp[:n], w.dp[:n]
	if n == 0 {
		return nil
	}
	if b[0] == 0 {
		return ErrSingular
	}
	cp[0] = c[0] / b[0]
	dp[0] = d[0] / b[0]
	for i := 1; i < n; i++ {
		den := b[i] - a[i]*cp[i-1]
		if den == 0 {
			return ErrSingular
		}
		cp[i] = c[i] / den
		dp[i] = (d[i] - a[i]*dp[i-1]) / den
	}
	x[n-1] = dp[n-1]
	for i := n - 2; i >= 0; i-- {
		x[i] = dp[i] - cp[i]*x[i+1]
	}
	return nil
}

// BlockTridiagWorkspace holds the per-solve scratch of a block-tridiagonal
// factorization (one block LU and its pivots), so batched solves — many
// lines in a relaxation sweep — allocate nothing per line. Each concurrent
// solve needs its own workspace.
type BlockTridiagWorkspace struct {
	m   int
	lu  []float64
	piv []int
}

// NewBlockTridiagWorkspace returns a workspace for m×m block systems.
// SolveFlatScaled solves 4×4 blocks only and rejects any other m.
func NewBlockTridiagWorkspace(m int) *BlockTridiagWorkspace {
	return &BlockTridiagWorkspace{m: m, lu: make([]float64, m*m), piv: make([]int, m)}
}

// SolveFlatScaled solves a block-tridiagonal system of 4×4 blocks stored
// flat — the conserved-variable line systems of the implicit flow solver.
// A, B, C hold the sub-, main- and super-diagonal blocks as n contiguous
// row-major 4×4 matrices (length 16n) and D holds the right-hand side as n
// contiguous 4-vectors (length 4n). The blocks are modified during the
// factorization and the solution overwrites D. A's first block and C's last
// block are ignored (and left unscaled).
//
// The diagonal equilibration is fused into the elimination: each block row
// is scaled entrywise by rat (length 16, rat[r*4+c] = scl[c]/scl[r] for a
// per-variable scale scl) and its right-hand block by 1/scl as the forward
// pass first touches it, so the plane is traversed once. The solution is in
// the SCALED variables — the caller maps back with D[i*4+r] *= scl[r]. Each
// diagonal block is factored by partial-pivoted LU, and the elimination runs
// through fully unrolled 4-wide kernels (mulSub4, lu4Factor, lu4SolveMat/Vec),
// the super-diagonal solve advancing all four columns at once. A workspace
// made for any block size but 4 returns an error.
//
//cataero:hotpath
func (w *BlockTridiagWorkspace) SolveFlatScaled(A, B, C, D []float64, n int, rat, scl []float64) error {
	if w.m != 4 {
		//cataero:allow hotpath cold misuse guard; never taken on a 4×4 workspace
		return fmt.Errorf("numerics: block tridiag solve needs 4×4 blocks (m=%d)", w.m)
	}
	if len(A) < n*16 || len(B) < n*16 || len(C) < n*16 || len(D) < n*4 || len(rat) < 16 || len(scl) < 4 {
		//cataero:allow hotpath cold misuse guard; never taken on a sized workspace
		return fmt.Errorf("numerics: block tridiag flat length mismatch (n=%d)", n)
	}
	s0, s1, s2, s3 := scl[0], scl[1], scl[2], scl[3]
	for i := 0; i < n; i++ {
		Bi := B[i*16 : i*16+16 : i*16+16]
		Di := D[i*4 : i*4+4 : i*4+4]
		for k := 0; k < 16; k++ {
			Bi[k] *= rat[k]
		}
		Di[0] /= s0
		Di[1] /= s1
		Di[2] /= s2
		Di[3] /= s3
		if i > 0 {
			Ai := A[i*16 : i*16+16 : i*16+16]
			for k := 0; k < 16; k++ {
				Ai[k] *= rat[k]
			}
			// C[i-1] was scaled (and then solved against B[i-1]) on the
			// previous iteration, so the products are in the scaled system.
			mulSub4(Bi, Ai, C[(i-1)*16:i*16])
			vecMulSub4(Di, Ai, D[(i-1)*4:i*4])
		}
		lu := w.lu[:16:16]
		copy(lu, Bi)
		if err := lu4Factor(lu, w.piv); err != nil {
			return err
		}
		if i < n-1 {
			Ci := C[i*16 : i*16+16 : i*16+16]
			for k := 0; k < 16; k++ {
				Ci[k] *= rat[k]
			}
			lu4SolveMat(lu, w.piv, Ci)
		}
		lu4SolveVec(lu, w.piv, Di)
	}
	for i := n - 2; i >= 0; i-- {
		vecMulSub4(D[i*4:i*4+4:i*4+4], C[i*16:i*16+16:i*16+16], D[(i+1)*4:(i+1)*4+4])
	}
	return nil
}

// mulSub4 computes B -= A*C for 4×4 row-major matrices, unrolled.
//
//cataero:hotpath
func mulSub4(B, A, C []float64) {
	B = B[:16:16]
	A = A[:16:16]
	C = C[:16:16]
	for r := 0; r < 4; r++ {
		a0, a1, a2, a3 := A[r*4], A[r*4+1], A[r*4+2], A[r*4+3]
		B[r*4] -= a0*C[0] + a1*C[4] + a2*C[8] + a3*C[12]
		B[r*4+1] -= a0*C[1] + a1*C[5] + a2*C[9] + a3*C[13]
		B[r*4+2] -= a0*C[2] + a1*C[6] + a2*C[10] + a3*C[14]
		B[r*4+3] -= a0*C[3] + a1*C[7] + a2*C[11] + a3*C[15]
	}
}

// vecMulSub4 computes d -= A*e for a 4×4 matrix and 4-vectors, unrolled.
//
//cataero:hotpath
func vecMulSub4(d, A, e []float64) {
	e0, e1, e2, e3 := e[0], e[1], e[2], e[3]
	d[0] -= A[0]*e0 + A[1]*e1 + A[2]*e2 + A[3]*e3
	d[1] -= A[4]*e0 + A[5]*e1 + A[6]*e2 + A[7]*e3
	d[2] -= A[8]*e0 + A[9]*e1 + A[10]*e2 + A[11]*e3
	d[3] -= A[12]*e0 + A[13]*e1 + A[14]*e2 + A[15]*e3
}

// lu4Factor is luFactor for a 4×4 block: in-place LU with partial pivoting,
// piv[k] = row exchanged with k at step k, and a swap moving only columns k
// and up, so the stored multipliers match lu4SolveMat/Vec, which apply each
// swap just before that step's elimination.
//
//cataero:hotpath
func lu4Factor(lu []float64, piv []int) error {
	lu = lu[:16:16]
	for k := 0; k < 4; k++ {
		p := k
		max := math.Abs(lu[k*4+k])
		for r := k + 1; r < 4; r++ {
			if v := math.Abs(lu[r*4+k]); v > max {
				max, p = v, r
			}
		}
		if max == 0 {
			//cataero:allow hotpath cold divergence exit; taken only on a singular line
			return ErrSingular
		}
		piv[k] = p
		if p != k {
			for c := k; c < 4; c++ {
				lu[k*4+c], lu[p*4+c] = lu[p*4+c], lu[k*4+c]
			}
		}
		inv := 1 / lu[k*4+k]
		for r := k + 1; r < 4; r++ {
			f := lu[r*4+k] * inv
			lu[r*4+k] = f
			for c := k + 1; c < 4; c++ {
				lu[r*4+c] -= f * lu[k*4+c]
			}
		}
	}
	return nil
}

// lu4SolveMat overwrites the 4×4 row-major X with B⁻¹X for the factored
// block: permutation and forward/back substitution applied row-wise, so all
// four columns advance together with no per-column scratch.
//
//cataero:hotpath
func lu4SolveMat(lu []float64, piv []int, X []float64) {
	lu = lu[:16:16]
	X = X[:16:16]
	for k := 0; k < 4; k++ {
		if p := piv[k]; p != k {
			X[k*4], X[p*4] = X[p*4], X[k*4]
			X[k*4+1], X[p*4+1] = X[p*4+1], X[k*4+1]
			X[k*4+2], X[p*4+2] = X[p*4+2], X[k*4+2]
			X[k*4+3], X[p*4+3] = X[p*4+3], X[k*4+3]
		}
		x0, x1, x2, x3 := X[k*4], X[k*4+1], X[k*4+2], X[k*4+3]
		for r := k + 1; r < 4; r++ {
			f := lu[r*4+k]
			X[r*4] -= f * x0
			X[r*4+1] -= f * x1
			X[r*4+2] -= f * x2
			X[r*4+3] -= f * x3
		}
	}
	for k := 3; k >= 0; k-- {
		x0, x1, x2, x3 := X[k*4], X[k*4+1], X[k*4+2], X[k*4+3]
		for c := k + 1; c < 4; c++ {
			u := lu[k*4+c]
			x0 -= u * X[c*4]
			x1 -= u * X[c*4+1]
			x2 -= u * X[c*4+2]
			x3 -= u * X[c*4+3]
		}
		d := lu[k*4+k]
		X[k*4], X[k*4+1], X[k*4+2], X[k*4+3] = x0/d, x1/d, x2/d, x3/d
	}
}

// lu4SolveVec overwrites the 4-vector b with B⁻¹b for the factored block.
//
//cataero:hotpath
func lu4SolveVec(lu []float64, piv []int, b []float64) {
	lu = lu[:16:16]
	b = b[:4:4]
	for k := 0; k < 4; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
		f := b[k]
		for r := k + 1; r < 4; r++ {
			b[r] -= lu[r*4+k] * f
		}
	}
	b[3] /= lu[15]
	b[2] = (b[2] - lu[11]*b[3]) / lu[10]
	b[1] = (b[1] - lu[6]*b[2] - lu[7]*b[3]) / lu[5]
	b[0] = (b[0] - lu[1]*b[1] - lu[2]*b[2] - lu[3]*b[3]) / lu[0]
}
