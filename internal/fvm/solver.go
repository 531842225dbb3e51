package fvm

import "math"

// computeResidual assembles the flux balance of every cell into s.res
// (d(U V)/dt = -res). Boundary conditions are applied at the flux level.
// All geometry comes from the precomputed metric arrays. Assembly is three
// cache-blocked passes on prebuilt range closures: the I- and J-face flux
// planes (one grid line per block, reconstructed into the chunk's SoA
// pencil and swept by the kernel's batched loop), then a gather pass that
// differences the planes into cell residuals and folds in the
// axisymmetric source. A block's pencil, metrics and flux writes stay
// resident while it runs, and no two chunks ever write the same cell, so
// there is no scatter contention and no zeroing pre-pass.
func (s *Solver) computeResidual() {
	// I-direction faces: i = 0..ni, between cells (i-1,j) and (i,j).
	s.pool.sweep(s.ni+1, &s.sweepTask, s.swFluxI)
	// J-direction faces: j = 0..nj, between cells (i,j-1) and (i,j).
	s.pool.sweep(s.ni, &s.sweepTask, s.swFluxJ)
	// Difference the face planes into cell residuals.
	s.pool.sweep(s.ni, &s.sweepTask, s.swAccum)
}

// fluxIRange fills the I-face flux plane for face columns [lo, hi): column
// i holds faces (i, j), j = 0..nj-1, contiguously in both the plane and
// the FaceIN metrics. Each column's face states go into the chunk pencil —
// ghost states on the boundary columns (symmetry mirror at i=0, zero-
// gradient outflow at i=ni), reconstructed states inside — and one
// batched kernel sweep fills the column.
//
//cataero:hotpath
func (s *Solver) fluxIRange(ci, lo, hi int) {
	ni, nj := s.ni, s.nj
	met := s.met
	ws := &s.bws[ci]
	for i := lo; i < hi; i++ {
		col := s.fluxI[4*i*nj : 4*(i+1)*nj]
		nrm := met.FaceIN[3*i*nj : 3*(i+1)*nj]
		switch i {
		case 0:
			// Symmetry plane (stagnation line): mirror the first cell.
			for j := 0; j < nj; j++ {
				in := s.prim[j]
				ws.L.setPrim(j, mirror(in, nrm[3*j], nrm[3*j+1]))
				ws.R.setPrim(j, in)
			}
		case ni:
			// Outflow: zero-gradient ghost.
			row := s.prim[(ni-1)*nj : ni*nj]
			for j := range row {
				copyFace(ws, j, &row[j], &row[j])
			}
		default:
			s.reconColI(ws, i)
		}
		s.flux.BatchFlux(col, &ws.L, &ws.R, nrm, nj)
	}
}

// fluxJRange fills the J-face flux plane for i-lines [lo, hi): line i
// holds faces (i, j), j = 0..nj, contiguously in the plane, the FaceJN
// metrics and the chunk pencil. The wall (j=0) and freestream-ghost (j=nj)
// faces take ghost states, the interior faces are reconstructed from the
// line's contiguous cell run, and one batched kernel sweep fills the line;
// the thin-layer viscous fluxes are then added scalar per face.
//
//cataero:hotpath
func (s *Solver) fluxJRange(ci, lo, hi int) {
	nj := s.nj
	met := s.met
	ws := &s.bws[ci]
	for i := lo; i < hi; i++ {
		row := s.fluxJ[4*i*(nj+1) : 4*(i+1)*(nj+1)]
		nrm := met.FaceJN[3*i*(nj+1) : 3*(i+1)*(nj+1)]
		// Wall face j=0: the upwind flux against the mirrored first cell,
		// whose inviscid part is pressure only (tangency) and which stays
		// robust through strong transients.
		in := s.prim[i*nj]
		ws.L.setPrim(0, mirror(in, nrm[0], nrm[1]))
		ws.R.setPrim(0, in)
		s.reconLineJ(ws, i)
		// Outer boundary j=nj: freestream ghost (supersonic inflow).
		ws.L.setPrim(nj, s.prim[i*nj+nj-1])
		ws.R.setPrim(nj, s.pInf)
		s.flux.BatchFlux(row, &ws.L, &ws.R, nrm, nj+1)
		if s.Opts.Viscous {
			fv := s.wallFlux(i, nrm[2])
			row[1] += fv[1]
			row[2] += fv[2]
			row[3] += fv[3]
			for j := 1; j < nj; j++ {
				area := nrm[3*j+2]
				if area == 0 {
					continue
				}
				fv := s.viscousFluxJ(i, j, area)
				k := 4 * j
				row[k+1] += fv[1]
				row[k+2] += fv[2]
				row[k+3] += fv[3]
			}
		}
	}
}

// accumRange differences the face flux planes into the cell residuals for
// i-lines [lo, hi), folding in the axisymmetric hoop-pressure source. It
// writes every residual exactly once, so computeResidual needs no zeroing
// pre-pass.
//
//cataero:hotpath
func (s *Solver) accumRange(ci, lo, hi int) {
	nj := s.nj
	met := s.met
	axi := s.G.Axisymmetric
	for i := lo; i < hi; i++ {
		for j := 0; j < nj; j++ {
			k := i*nj + j
			iw := 4 * k
			ie := 4 * (k + nj)
			js := 4 * (i*(nj+1) + j)
			jn := js + 4
			for c := 0; c < 4; c++ {
				s.res[k][c] = s.fluxI[ie+c] - s.fluxI[iw+c] + s.fluxJ[jn+c] - s.fluxJ[js+c]
			}
			if axi {
				// Axisymmetric hoop-pressure source in the radial momentum
				// equation.
				s.res[k][2] -= s.prim[k].P * met.Area[k]
			}
		}
	}
}

// mirror reflects a primitive state across a face with unit normal (nx, ny).
func mirror(q Prim, nx, ny float64) Prim {
	un := q.U*nx + q.V*ny
	out := q
	out.U = q.U - 2*un*nx
	out.V = q.V - 2*un*ny
	return out
}

// wallFlux returns the viscous flux of the no-slip isothermal wall face of
// column i, of the given area, in viscousFluxJ's sign convention: shear
// from the half-cell gradient and conduction against the fixed wall
// temperature, added on top of the inviscid wall flux.
func (s *Solver) wallFlux(i int, area float64) Cons {
	q := s.prim[s.idx(i, 0)]
	dn := s.met.WallHalf[i]
	mu := s.Opts.Mu(0.5 * (q.T + s.Opts.TWall))
	kth := s.Opts.K(0.5 * (q.T + s.Opts.TWall))
	return Cons{
		0,
		-mu * q.U / dn * area,
		-mu * q.V / dn * area,
		-kth * (q.T - s.Opts.TWall) / dn * area,
	}
}

// viscousFluxJ returns the thin-layer viscous flux through interior j-face
// (i, j) of the given area, pointing toward +j. Sign convention: returned
// flux is added to the +j-directed total flux.
func (s *Solver) viscousFluxJ(i, j int, area float64) Cons {
	m := s.prim[s.idx(i, j-1)]
	p := s.prim[s.idx(i, j)]
	// Cached distance between the straddling cell centers.
	dn := s.met.JDist[i*(s.nj+1)+j]
	if dn == 0 {
		return Cons{}
	}
	Tf := 0.5 * (m.T + p.T)
	mu := s.Opts.Mu(Tf)
	kth := s.Opts.K(Tf)
	dudn := (p.U - m.U) / dn
	dvdn := (p.V - m.V) / dn
	dTdn := (p.T - m.T) / dn
	uf := 0.5 * (m.U + p.U)
	vf := 0.5 * (m.V + p.V)
	return Cons{
		0,
		-mu * dudn * area,
		-mu * dvdn * area,
		-(mu*(uf*dudn+vf*dvdn) + kth*dTdn) * area,
	}
}

// timeSteps fills the local time-step array from the cached metrics, at the
// solver's current CFL number (s.cfl: Opts.CFL for the explicit integrator,
// the ramped value for the implicit one).
func (s *Solver) timeSteps() {
	s.pool.sweep(s.ni, &s.sweepTask, s.swDT)
}

// dtRange fills the local time steps for i-lines [lo, hi).
//
//cataero:hotpath
func (s *Solver) dtRange(ci, lo, hi int) {
	met := s.met
	nj := s.nj
	for i := lo; i < hi; i++ {
		for j := 0; j < nj; j++ {
			k := s.idx(i, j)
			q := s.prim[k]
			vol := met.Vol[k]
			// Spectral radius estimate over the four faces, from the cached
			// unit normals and areas, with the face loop unrolled so nothing
			// is staged through a temporary array.
			lam := 0.0
			sMax := 0.0
			fw := 3 * (i*nj + j)
			fe := 3 * ((i+1)*nj + j)
			fs := 3 * (i*(nj+1) + j)
			fn := fs + 3
			if mag := met.FaceIN[fw+2]; mag > 0 {
				if un := (math.Abs(q.U*met.FaceIN[fw]+q.V*met.FaceIN[fw+1]) + q.A) * mag; un > lam {
					lam = un
				}
				if mag > sMax {
					sMax = mag
				}
			}
			if mag := met.FaceIN[fe+2]; mag > 0 {
				if un := (math.Abs(q.U*met.FaceIN[fe]+q.V*met.FaceIN[fe+1]) + q.A) * mag; un > lam {
					lam = un
				}
				if mag > sMax {
					sMax = mag
				}
			}
			if mag := met.FaceJN[fs+2]; mag > 0 {
				if un := (math.Abs(q.U*met.FaceJN[fs]+q.V*met.FaceJN[fs+1]) + q.A) * mag; un > lam {
					lam = un
				}
				if mag > sMax {
					sMax = mag
				}
			}
			if mag := met.FaceJN[fn+2]; mag > 0 {
				if un := (math.Abs(q.U*met.FaceJN[fn]+q.V*met.FaceJN[fn+1]) + q.A) * mag; un > lam {
					lam = un
				}
				if mag > sMax {
					sMax = mag
				}
			}
			if s.Opts.Viscous {
				// Diffusive spectral radius 2 mu S^2 / (rho V).
				lam += 2 * s.Opts.Mu(q.T) * sMax * sMax / (q.Rho * vol)
			}
			if lam <= 0 {
				lam = 1
			}
			s.dt[k] = s.cfl * vol / lam
		}
	}
}

// Step advances one time step of the configured integrator
// (Options.TimeStepping) and returns the RMS density residual.
//
//cataero:hotpath
func (s *Solver) Step() float64 {
	if s.imp != nil {
		return s.imp.Step()
	}
	return s.stepExplicit()
}

// stepExplicit advances one explicit two-stage (Heun) local-time step and
// returns the RMS density residual. Both stages, including the stage-2
// combine and residual reduction, run on the worker pool.
//
//cataero:hotpath
func (s *Solver) stepExplicit() float64 {
	s.updatePrimitives()
	s.timeSteps()
	copy(s.u0, s.U)
	// Stage 1.
	s.computeResidual()
	s.pool.sweep(s.ni, &s.sweepTask, s.swStage1)
	// Stage 2.
	s.updatePrimitives()
	s.computeResidual()
	s.pool.sweep(s.ni, &s.sweepTask, s.swStage2)
	return math.Sqrt(s.partialSum() / float64(s.ni*s.nj))
}

// partialSum folds the per-chunk partial sums the last reduction sweep left
// in s.partial (sized by chunkCount(ni); every chunk of an ni-sweep writes
// its ci slot).
func (s *Solver) partialSum() float64 {
	sum := 0.0
	for _, v := range s.partial {
		sum += v
	}
	return sum
}

// stage1Range applies the full forward-Euler stage-1 update for i-lines
// [lo, hi).
//
//cataero:hotpath
func (s *Solver) stage1Range(ci, lo, hi int) {
	met := s.met
	for i := lo; i < hi; i++ {
		for j := 0; j < s.nj; j++ {
			k := s.idx(i, j)
			dtv := s.dt[k] / met.Vol[k]
			for c := 0; c < 4; c++ {
				s.U[k][c] -= dtv * s.res[k][c]
			}
		}
	}
}

// stage2Range combines the Heun stages and accumulates the chunk's share of
// the squared density residual into s.partial.
//
//cataero:hotpath
func (s *Solver) stage2Range(ci, lo, hi int) {
	met := s.met
	nj := s.nj
	line := 0.0
	for i := lo; i < hi; i++ {
		for j := 0; j < nj; j++ {
			k := s.idx(i, j)
			dtv := s.dt[k] / met.Vol[k]
			for c := 0; c < 4; c++ {
				s.U[k][c] = 0.5*s.u0[k][c] + 0.5*(s.U[k][c]-dtv*s.res[k][c])
			}
			r := s.res[k][0] / met.Vol[k]
			line += r * r
		}
	}
	s.partial[ci] = line
}

// Primitive returns the primitive state of cell (i, j). It is a pure read:
// the conserved state is decoded into a local, without touching the shared
// primitive cache (which step stages own).
func (s *Solver) Primitive(i, j int) Prim {
	return s.decode(s.U[s.idx(i, j)])
}

// Freestream returns the freestream primitive state.
func (s *Solver) Freestream() Prim { return s.pInf }

// ShockLocus returns, for each i-line, the (x, y) position where the
// pressure first exceeds threshold*pInf marching inward from the outer
// boundary, or the outer node when no shock is found on that line.
func (s *Solver) ShockLocus(threshold float64) (xs, ys []float64) {
	s.updatePrimitives()
	xs = make([]float64, s.ni)
	ys = make([]float64, s.ni)
	for i := 0; i < s.ni; i++ {
		xs[i] = s.G.X[i][s.nj]
		ys[i] = s.G.Y[i][s.nj]
		for j := s.nj - 1; j >= 0; j-- {
			if s.prim[s.idx(i, j)].P > threshold*s.pInf.P {
				k := s.idx(i, j)
				xs[i], ys[i] = s.met.Cx[k], s.met.Cy[k]
				break
			}
		}
	}
	return xs, ys
}

// WallPressure returns p along the wall (cell row j=0).
func (s *Solver) WallPressure() []float64 {
	out := make([]float64, s.ni)
	for i := 0; i < s.ni; i++ {
		out[i] = s.Primitive(i, 0).P
	}
	return out
}

// WallHeatFlux returns the wall heat flux (W/m^2) for viscous runs.
func (s *Solver) WallHeatFlux() []float64 {
	out := make([]float64, s.ni)
	if !s.Opts.Viscous {
		return out
	}
	for i := 0; i < s.ni; i++ {
		q := s.Primitive(i, 0)
		dn := s.met.WallHalf[i]
		kth := s.Opts.K(0.5 * (q.T + s.Opts.TWall))
		out[i] = kth * (q.T - s.Opts.TWall) / dn
	}
	return out
}
