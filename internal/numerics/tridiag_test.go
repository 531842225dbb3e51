package numerics

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveTridiagKnown(t *testing.T) {
	// System: 2x1 + x2 = 4; x1 + 2x2 + x3 = 8; x2 + 2x3 = 8 -> x = (1,2,3).
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	d := []float64{4, 8, 8}
	x := make([]float64, 3)
	if err := NewTridiagWorkspace(3).Solve(a, b, c, d, x); err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d]=%g want %g", i, x[i], want[i])
		}
	}
}

func TestSolveTridiagSizeOne(t *testing.T) {
	x := make([]float64, 1)
	if err := NewTridiagWorkspace(1).Solve([]float64{0}, []float64{4}, []float64{0}, []float64{8}, x); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-14 {
		t.Errorf("x[0]=%g want 2", x[0])
	}
}

func TestSolveTridiagSingular(t *testing.T) {
	x := make([]float64, 2)
	err := NewTridiagWorkspace(2).Solve([]float64{0, 0}, []float64{0, 1}, []float64{0, 0}, []float64{1, 1}, x)
	if err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveTridiagLengthMismatch(t *testing.T) {
	x := make([]float64, 2)
	if err := NewTridiagWorkspace(2).Solve([]float64{0}, []float64{1, 1}, []float64{0, 0}, []float64{1, 1}, x); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

// Property: tridiagonal solves agree with dense LU on random diagonally
// dominant systems, one workspace serving every size.
func TestTridiagMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewTridiagWorkspace(2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		a := make([]float64, n)
		b := make([]float64, n)
		c := make([]float64, n)
		d := make([]float64, n)
		A := make([]float64, n*n)
		for i := 0; i < n; i++ {
			if i > 0 {
				a[i] = r.Float64()*2 - 1
				A[i*n+i-1] = a[i]
			}
			if i < n-1 {
				c[i] = r.Float64()*2 - 1
				A[i*n+i+1] = c[i]
			}
			b[i] = 3 + r.Float64() // diagonally dominant
			A[i*n+i] = b[i]
			d[i] = r.Float64()*10 - 5
		}
		x := make([]float64, n)
		if err := w.Solve(a, b, c, d, x); err != nil {
			return false
		}
		ref, err := SolveDense(A, d, n)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTridiagWorkspaceReuse(t *testing.T) {
	w := NewTridiagWorkspace(3)
	a := []float64{0, 1, 1}
	b := []float64{2, 2, 2}
	c := []float64{1, 1, 0}
	d := []float64{4, 8, 8}
	x := make([]float64, 3)
	for k := 0; k < 3; k++ {
		if err := w.Solve(a, b, c, d, x); err != nil {
			t.Fatal(err)
		}
		if math.Abs(x[1]-2) > 1e-12 {
			t.Fatalf("iteration %d: x[1]=%g want 2", k, x[1])
		}
	}
	// Workspace grows on demand.
	a5 := []float64{0, 1, 1, 1, 1}
	b5 := []float64{4, 4, 4, 4, 4}
	c5 := []float64{1, 1, 1, 1, 0}
	d5 := []float64{1, 1, 1, 1, 1}
	x5 := make([]float64, 5)
	if err := w.Solve(a5, b5, c5, d5, x5); err != nil {
		t.Fatal(err)
	}
}

// The implicit integrator's line solve is checked against dense LU on the
// assembled, unscaled matrix. The systems are scaled like the
// conserved-variable Jacobians, whose mass and energy entries differ by
// powers of the velocity: a well-conditioned block system M0 becomes
// M = S M0 S⁻¹ with S = diag(scl) on every block, so the fused equilibration
// (rat on A, B and C, 1/scl on D) has real work to do and the scaled
// solution must be mapped back by scl.
var (
	flatScl = []float64{1, 40, 40, 1600} // (1, v, v, v²)
	flatRat = func() []float64 {
		rat := make([]float64, 16)
		for r := 0; r < 4; r++ {
			for c := 0; c < 4; c++ {
				rat[r*4+c] = flatScl[c] / flatScl[r]
			}
		}
		return rat
	}()
)

// TestBlockTridiagFlatMatchesDense solves diagonally dominant systems of
// varying length over and over with one workspace.
func TestBlockTridiagFlatMatchesDense(t *testing.T) {
	w := NewBlockTridiagWorkspace(4)
	r := rand.New(rand.NewSource(100))
	for trial := 0; trial < 12; trial++ {
		checkFlatScaled(t, w, r, 2+r.Intn(12), false, fmt.Sprintf("dominant trial %d", trial))
	}
}

// TestBlockTridiagMatchesDense solves a system whose leading B entry is 0
// (the first block LU must pivot) and a single block row, and checks that
// blocks other than 4×4 are refused.
func TestBlockTridiagMatchesDense(t *testing.T) {
	w := NewBlockTridiagWorkspace(4)
	checkFlatScaled(t, w, rand.New(rand.NewSource(200)), 5, true, "pivot")
	checkFlatScaled(t, w, rand.New(rand.NewSource(300)), 1, false, "n=1")
	if err := NewBlockTridiagWorkspace(3).SolveFlatScaled(make([]float64, 9), make([]float64, 9), make([]float64, 9),
		make([]float64, 3), 1, make([]float64, 9), make([]float64, 3)); err == nil {
		t.Error("3×3 blocks accepted")
	}
}

// checkFlatScaled draws one scaled system of n block rows, solves it with w
// and compares the unscaled solution with dense LU. With pivot set, the
// system's leading B entry is zeroed.
func checkFlatScaled(t *testing.T, w *BlockTridiagWorkspace, r *rand.Rand, n int, pivot bool, label string) {
	t.Helper()
	A, B, C, D, full := scaledBlockSystem(r, n, flatScl)
	if pivot {
		// The equilibrated first block is M0's, whose column 0 now has its
		// largest entry below the diagonal.
		B[0] = 0
		full[0] = 0
	}
	N := 4 * n
	ref, err := SolveDense(full, D, N)
	if err != nil {
		t.Fatal(err)
	}
	// A's first block and C's last block are ignored and left as they are.
	A0 := append([]float64(nil), A[:16]...)
	Cn := append([]float64(nil), C[(n-1)*16:]...)
	if err := w.SolveFlatScaled(A, B, C, D, n, flatRat, flatScl); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for k := 0; k < 16; k++ {
		if A[k] != A0[k] || C[(n-1)*16+k] != Cn[k] {
			t.Fatalf("%s: ignored block entry %d changed", label, k)
		}
	}
	for k := 0; k < N; k++ {
		got := D[k] * flatScl[k%4]
		if math.Abs(got-ref[k]) > 1e-10*math.Abs(ref[k]) {
			t.Fatalf("%s (n=%d) entry %d: got %.17g want %.17g", label, n, k, got, ref[k])
		}
	}
}

// scaledBlockSystem draws a diagonally dominant system of n 4×4 block rows,
// scales it to M = S M0 S⁻¹ and right-hand side S D0, and returns it in the
// flat layout SolveFlatScaled takes (A's first and C's last block hold
// junk) together with its dense assembly. The right-hand side D doubles as
// SolveDense's, which leaves it as it is.
func scaledBlockSystem(r *rand.Rand, n int, scl []float64) (A, B, C, D, full []float64) {
	N := 4 * n
	A = make([]float64, n*16)
	B = make([]float64, n*16)
	C = make([]float64, n*16)
	D = make([]float64, N)
	full = make([]float64, N*N)
	for k := range A {
		A[k] = r.Float64() - 0.5
		B[k] = r.Float64() - 0.5
		C[k] = r.Float64() - 0.5
	}
	for i := 0; i < n; i++ {
		for bi := 0; bi < 4; bi++ {
			B[i*16+bi*5] += 6 // dominance
			D[i*4+bi] = (r.Float64()*4 - 2) * scl[bi]
			for bj := 0; bj < 4; bj++ {
				s := scl[bi] / scl[bj]
				k := i*16 + bi*4 + bj
				A[k] *= s
				B[k] *= s
				C[k] *= s
				row := (i*4 + bi) * N
				full[row+i*4+bj] = B[k]
				if i > 0 {
					full[row+(i-1)*4+bj] = A[k]
				}
				if i < n-1 {
					full[row+(i+1)*4+bj] = C[k]
				}
			}
		}
	}
	return A, B, C, D, full
}

func TestBlockTridiagFlatLengthMismatch(t *testing.T) {
	w := NewBlockTridiagWorkspace(4)
	rat, scl := make([]float64, 16), make([]float64, 4)
	if err := w.SolveFlatScaled(make([]float64, 16), make([]float64, 32), make([]float64, 32), make([]float64, 8), 2, rat, scl); err == nil {
		t.Fatal("expected length mismatch error")
	}
}

func TestSolveDenseIdentityAndRandom(t *testing.T) {
	A := []float64{1, 0, 0, 1}
	x := []float64{3, -4}
	if err := SolveDenseInPlace(A, x, make([]int, 2), 2); err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != -4 {
		t.Errorf("identity solve wrong: %v", x)
	}
	// Random verification: A x = b -> residual small.
	r := rand.New(rand.NewSource(11))
	n := 8
	Ar := make([]float64, n*n)
	b := make([]float64, n)
	for i := range Ar {
		Ar[i] = r.Float64()*2 - 1
	}
	for i := 0; i < n; i++ {
		Ar[i*n+i] += 4
		b[i] = r.Float64()
	}
	lu := append([]float64(nil), Ar...)
	x = append([]float64(nil), b...)
	if err := SolveDenseInPlace(lu, x, make([]int, n), n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res := -b[i]
		for j := 0; j < n; j++ {
			res += Ar[i*n+j] * x[j]
		}
		if math.Abs(res) > 1e-10 {
			t.Errorf("residual %d: %g", i, res)
		}
	}
	// General matrices, with no diagonal dominance to spare the pivoting,
	// swap rows after the first column. The solve applies each swap just
	// before that step's elimination, so the swap must leave the stored
	// multipliers of earlier columns where they are.
	for trial := 0; trial < 50; trial++ {
		n := 3 + trial%6
		Ag := make([]float64, n*n)
		bg := make([]float64, n)
		for i := range Ag {
			Ag[i] = r.Float64()*2 - 1
		}
		for i := range bg {
			bg[i] = r.Float64()*2 - 1
		}
		lu := append([]float64(nil), Ag...)
		x := append([]float64(nil), bg...)
		if err := SolveDenseInPlace(lu, x, make([]int, n), n); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			res := -bg[i]
			for j := 0; j < n; j++ {
				res += Ag[i*n+j] * x[j]
			}
			if math.Abs(res) > 1e-9 {
				t.Fatalf("general trial %d (n=%d) row %d: residual %g", trial, n, i, res)
			}
		}
	}
}

func TestSolveDenseSingular(t *testing.T) {
	A := []float64{1, 2, 2, 4} // rank 1
	if err := SolveDenseInPlace(A, []float64{1, 1}, make([]int, 2), 2); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestNorms(t *testing.T) {
	if got := NormInf([]float64{3, -4}); got != 4 {
		t.Errorf("NormInf = %g", got)
	}
	if NormInf(nil) != 0 {
		t.Error("empty norm should be zero")
	}
}
