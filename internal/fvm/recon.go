package fvm

import "math"

// batchWS is one sweep chunk's face-state workspace: the left/right SoA
// pencils the flux sweeps fill and BatchFlux consumes. One
// workspace per pool chunk, allocated in New, so stepping allocates
// nothing and concurrent chunks never share a pencil.
type batchWS struct {
	L, R FaceStates
}

// Limiter kinds, the values of limiterTable: `limited` dispatches on the
// kind with a predictable branch, so both small limiter functions inline
// into it instead of costing eight indirect calls per face.
const (
	limKindMinmod = iota
	limKindVanAlbada
)

// limited applies the configured slope limiter (Options.Limiter).
//
//cataero:hotpath
func (s *Solver) limited(a, b float64) float64 {
	if s.limKind == limKindVanAlbada {
		return vanAlbada(a, b)
	}
	return minmod(a, b)
}

// reconFace MUSCL-reconstructs the left/right states of one face from its
// four-cell stencil into pencil slot f: limited half-slopes, a revert to the
// cell state where the extrapolated density or pressure is not positive,
// and the derived A/E recompute. The recompute scales the cell's sound
// speed and internal energy by the change in p/rho (a gamma-like ratio,
// adequate for wave-speed estimates). Missing outer neighbors are passed as
// qmm==qm / qpp==qp: the one-sided difference is then exactly zero, the
// recompute factors are exactly 1, and the face takes the unextrapolated
// cell state bitwise.
//
//cataero:hotpath
func (s *Solver) reconFace(ws *batchWS, f int, qmm, qm, qp, qpp *Prim) {
	d1Rho := qp.Rho - qm.Rho
	d1U := qp.U - qm.U
	d1V := qp.V - qm.V
	d1P := qp.P - qm.P
	lRho := qm.Rho + 0.5*s.limited(qm.Rho-qmm.Rho, d1Rho)
	lU := qm.U + 0.5*s.limited(qm.U-qmm.U, d1U)
	lV := qm.V + 0.5*s.limited(qm.V-qmm.V, d1V)
	lP := qm.P + 0.5*s.limited(qm.P-qmm.P, d1P)
	rRho := qp.Rho - 0.5*s.limited(d1Rho, qpp.Rho-qp.Rho)
	rU := qp.U - 0.5*s.limited(d1U, qpp.U-qp.U)
	rV := qp.V - 0.5*s.limited(d1V, qpp.V-qp.V)
	rP := qp.P - 0.5*s.limited(d1P, qpp.P-qp.P)
	if lRho <= 0 || lP <= 0 {
		lRho, lU, lV, lP = qm.Rho, qm.U, qm.V, qm.P
	}
	if rRho <= 0 || rP <= 0 {
		rRho, rU, rV, rP = qp.Rho, qp.U, qp.V, qp.P
	}
	ws.L.Rho[f] = lRho
	ws.L.U[f] = lU
	ws.L.V[f] = lV
	ws.L.P[f] = lP
	ws.L.T[f] = qm.T
	ws.L.A[f] = qm.A * math.Sqrt((lP/qm.P)*(qm.Rho/lRho))
	ws.L.E[f] = qm.E * (lP / qm.P) * (qm.Rho / lRho)
	ws.R.Rho[f] = rRho
	ws.R.U[f] = rU
	ws.R.V[f] = rV
	ws.R.P[f] = rP
	ws.R.T[f] = qp.T
	ws.R.A[f] = qp.A * math.Sqrt((rP/qp.P)*(qp.Rho/rRho))
	ws.R.E[f] = qp.E * (rP / qp.P) * (qp.Rho / rRho)
}

// copyFace stores the unreconstructed cell states as the face states — the
// MUSCL-off (first-order) path.
//
//cataero:hotpath
func copyFace(ws *batchWS, f int, qm, qp *Prim) {
	ws.L.setPrim(f, *qm)
	ws.R.setPrim(f, *qp)
}

// reconColI fills the chunk workspace with the face states of interior
// I-face column i (faces (i, j), j = 0..nj-1, between cell rows i-1 and
// i). The four stencil rows are contiguous prim runs sharing the face
// index, so the gathers stream. Missing outer rows at the i boundaries
// alias the inner row (zero one-sided difference — see reconFace).
func (s *Solver) reconColI(ws *batchWS, i int) {
	nj := s.nj
	rowM := s.prim[(i-1)*nj : i*nj]
	rowP := s.prim[i*nj : (i+1)*nj]
	if !s.Opts.MUSCL {
		for f := 0; f < nj; f++ {
			copyFace(ws, f, &rowM[f], &rowP[f])
		}
		return
	}
	rowMM := rowM
	if i >= 2 {
		rowMM = s.prim[(i-2)*nj : (i-1)*nj]
	}
	rowPP := rowP
	if i+1 <= s.ni-1 {
		rowPP = s.prim[(i+1)*nj : (i+2)*nj]
	}
	for f := 0; f < nj; f++ {
		s.reconFace(ws, f, &rowMM[f], &rowM[f], &rowP[f], &rowPP[f])
	}
}

// reconLineJ fills the chunk workspace with the face states of the
// interior J-faces of i-line i (faces (i, j), j = 1..nj-1, pencil slot j;
// fluxJRange fills the boundary slots 0 and nj). The whole stencil lives in
// one contiguous prim run; the neighbor indices clamp at the line ends,
// which zeroes the one-sided difference exactly like a missing neighbor.
func (s *Solver) reconLineJ(ws *batchWS, i int) {
	nj := s.nj
	cells := s.prim[i*nj : (i+1)*nj]
	if !s.Opts.MUSCL {
		for j := 1; j < nj; j++ {
			copyFace(ws, j, &cells[j-1], &cells[j])
		}
		return
	}
	for j := 1; j < nj; j++ {
		im := max(j-2, 0)
		ip := min(j+1, nj-1)
		s.reconFace(ws, j, &cells[im], &cells[j-1], &cells[j], &cells[ip])
	}
}
