package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"cataero"
	"cataero/internal/fvm"
	"cataero/internal/gas"
	"cataero/internal/ledger"
	"cataero/internal/ns"
	"cataero/internal/numerics"
)

// fieldProbe is a converged NS field the probes take their inputs from.
type fieldProbe struct {
	res    *ns.Result
	env    *cataero.Environment
	spec   []byte // canonical case JSON
	key    string
	ckpt   []byte // the last checkpoint the solve emitted, encoded
	encUS  []float64
	twall  float64
	vInf   float64
	sample []fvm.Prim // primitive states of the field's cells
}

// solveField converges kind k at wall temperature tw on the runner's
// session with checkpointing on; the sink times Checkpoint.AppendBinary.
func solveField(ctx context.Context, r *runner, k *caseKind, tw float64) (*fieldProbe, error) {
	f := &fieldProbe{twall: tw}
	p := k.problem(tw)
	f.vInf = p.VInf
	var buf []byte
	p.CheckpointEvery = 25
	p.CheckpointSink = func(cp *cataero.Checkpoint) {
		t0 := time.Now()
		var err error
		buf, err = cp.AppendBinary(buf[:0])
		if err == nil {
			f.encUS = append(f.encUS, float64(time.Since(t0))/1e3)
		}
	}
	env, err := r.sess.Solve(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("probe field %s: %w", k.name, err)
	}
	res, ok := env.Raw.(*ns.Result)
	if !ok || len(buf) == 0 {
		return nil, fmt.Errorf("probe field %s: no NS field or checkpoint", k.name)
	}
	f.res, f.env, f.ckpt = res, env, buf
	np, err := r.sess.Normalize(k.problem(tw))
	if err != nil {
		return nil, err
	}
	if f.spec, err = cataero.CanonicalJSON(np); err != nil {
		return nil, err
	}
	if f.key, err = cataero.CaseKey(np); err != nil {
		return nil, err
	}
	g := res.Grid
	for i := 0; i < g.NI; i++ {
		for j := 0; j < g.NJ; j++ {
			f.sample = append(f.sample, res.Solver.Primitive(i, j))
		}
	}
	return f, nil
}

// stepNS times `steps` fvm.Solver.Step calls on a copy of the converged
// field with the given pool, returning ns per cell per step.
func (f *fieldProbe) stepNS(pool *fvm.Pool, steps int) (float64, error) {
	o := f.res.Solver.Opts
	o.Pool, o.Progress, o.CheckpointSink, o.CheckpointEvery, o.Restore = pool, nil, nil, 0, nil
	s, err := fvm.New(f.res.Grid, o)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	copy(s.U, f.res.Solver.U)
	s.Step()
	t0 := time.Now()
	for i := 0; i < steps; i++ {
		s.Step()
	}
	return float64(time.Since(t0)) / float64(steps*f.res.Grid.NI*f.res.Grid.NJ), nil
}

// fluxNS times the default kernel's BatchFlux over the field's interior
// i-faces, one pencil per i-line, returning ns per face.
func (f *fieldProbe) fluxNS(reps int) (float64, error) {
	k, err := fvm.FluxKernelFor("")
	if err != nil {
		return 0, err
	}
	bk, ok := k.(fvm.BatchFluxKernel)
	if !ok {
		return 0, fmt.Errorf("flux kernel %s has no batched form", k.Name())
	}
	g := f.res.Grid
	m := g.Metrics()
	nj := g.NJ
	type pencil struct {
		L, R fvm.FaceStates
		nrm  []float64
	}
	var ps []pencil
	for i := 1; i < g.NI; i++ {
		p := pencil{L: newPencil(nj), R: newPencil(nj), nrm: m.FaceIN[3*i*nj : 3*(i+1)*nj]}
		for j := 0; j < nj; j++ {
			setFace(&p.L, j, f.sample[(i-1)*nj+j])
			setFace(&p.R, j, f.sample[i*nj+j])
		}
		ps = append(ps, p)
	}
	dst := make([]float64, 4*nj)
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for n := 0; n < 20; n++ {
			for i := range ps {
				bk.BatchFlux(dst, &ps[i].L, &ps[i].R, ps[i].nrm, nj)
			}
		}
		per = append(per, float64(time.Since(t0))/float64(20*len(ps)*nj))
	}
	return median(per), nil
}

func newPencil(n int) fvm.FaceStates {
	return fvm.FaceStates{
		Rho: make([]float64, n), U: make([]float64, n), V: make([]float64, n),
		P: make([]float64, n), T: make([]float64, n), A: make([]float64, n), E: make([]float64, n),
	}
}

func setFace(fs *fvm.FaceStates, j int, q fvm.Prim) {
	fs.Rho[j], fs.U[j], fs.V[j], fs.P[j], fs.T[j], fs.A[j], fs.E[j] = q.Rho, q.U, q.V, q.P, q.T, q.A, q.E
}

// btriUS times numerics.SolveFlatScaled on one block-tridiagonal system per
// wall-normal line of the field (4x4 blocks, diagonally dominant, entries
// scaled by each cell's state), returning µs per line.
func (f *fieldProbe) btriUS(reps int) (float64, error) {
	g := f.res.Grid
	n := g.NJ
	v := f.vInf
	scl := []float64{1, v, v, v * v}
	rat := make([]float64, 16)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			rat[r*4+c] = scl[c] / scl[r]
		}
	}
	type line struct{ A, B, C, D []float64 }
	var lines []line
	for i := 0; i < g.NI; i++ {
		l := line{make([]float64, 16*n), make([]float64, 16*n), make([]float64, 16*n), make([]float64, 4*n)}
		for j := 0; j < n; j++ {
			q := f.sample[i*n+j]
			w := q.Rho / f.sample[i*n+n-1].Rho
			for r := 0; r < 4; r++ {
				for c := 0; c < 4; c++ {
					off := 0.05 * w * math.Cos(float64(r+2*c)+q.U/v)
					l.A[16*j+4*r+c], l.C[16*j+4*r+c] = -off-boolf(r == c)*0.4, off-boolf(r == c)*0.4
					l.B[16*j+4*r+c] = off + boolf(r == c)*(2+w)
				}
				l.D[4*j+r] = scl[r] * (1 + 0.1*w)
			}
		}
		lines = append(lines, l)
	}
	ws := numerics.NewBlockTridiagWorkspace(4)
	work := line{make([]float64, 16*n), make([]float64, 16*n), make([]float64, 16*n), make([]float64, 4*n)}
	var per []float64
	for r := 0; r < reps; r++ {
		var el time.Duration
		for _, l := range lines {
			copy(work.A, l.A)
			copy(work.B, l.B)
			copy(work.C, l.C)
			copy(work.D, l.D)
			t0 := time.Now()
			if err := ws.SolveFlatScaled(work.A, work.B, work.C, work.D, n, rat, scl); err != nil {
				return 0, err
			}
			el += time.Since(t0)
		}
		per = append(per, float64(el)/1e3/float64(len(lines)))
	}
	return median(per), nil
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// eosNS times Opts.Gas.PrimState over the field's cell states, ns per call.
func (f *fieldProbe) eosNS(reps int) float64 {
	model := f.res.Solver.Opts.Gas
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for _, q := range f.sample {
			_, _, _, _ = model.PrimState(q.Rho, q.E) // the states come from a converged field
		}
		per = append(per, float64(time.Since(t0))/float64(len(f.sample)))
	}
	return median(per)
}

// equilibriumUS times the Gibbs solver (chem.EquilibriumSolver.
// CompositionRhoT) on up to 48 cell states of an equilibrium field, µs per
// call.
func (f *fieldProbe) equilibriumUS(eq *gas.Equilibrium) float64 {
	step := max(1, len(f.sample)/48)
	var per []float64
	for i := 0; i < len(f.sample); i += step {
		q := f.sample[i]
		t0 := time.Now()
		_, _ = eq.Eq.CompositionRhoT(q.Rho, math.Max(q.T, 200), eq.Y0) // converged-field states
		per = append(per, float64(time.Since(t0))/1e3)
	}
	return median(per)
}

// nsTable builds the EOS table an equilibrium-air NS solve of p builds on
// first use: the program's NS table rectangle around p's freestream
// (internal/core's nsTableSpec, which is unexported). TestProbeTableIsSolveTable
// checks that it answers exactly as the solve's own table does.
func nsTable(eq *gas.Equilibrium, p cataero.Problem) (*gas.Table, error) {
	rhoInf := eq.Mix.Density(p.PInf, p.TInf, eq.Y0)
	return gas.NewTable(eq, rhoInf*0.05, rhoInf*40, 1e5, 2*(0.5*p.VInf*p.VInf+1e6), 30, 30)
}

// tableBuildMS times building p's NS table, ms per build.
func tableBuildMS(eq *gas.Equilibrium, p cataero.Problem, reps int) (float64, error) {
	var per []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if _, err := nsTable(eq, p); err != nil {
			return 0, err
		}
		per = append(per, ms(time.Since(t0)))
	}
	return median(per), nil
}

// ledgerProbe times Put, Get and PutCheckpoint on a scratch ledger in dir
// (same filesystem as the service's) with the field's real result,
// canonical spec and checkpoint bytes.
func ledgerProbe(dir string, f *fieldProbe, n int) (get, put, ckpt, entryBytes float64, err error) {
	l, err := ledger.Open(dir)
	if err != nil {
		return
	}
	result, err := json.Marshal(f.env)
	if err != nil {
		return
	}
	var keys []string
	var putUS, getUS, ckptUS []float64
	for i := 0; i < n; i++ {
		// Distinct keys with the field's real payload sizes.
		key := fmt.Sprintf("%s%02x", f.key[:62], i)
		keys = append(keys, key)
		t0 := time.Now()
		if err = l.Put(&ledger.Entry{Key: key, Spec: f.spec, Result: result, Solver: "ns", Version: cataero.Version}); err != nil {
			return
		}
		putUS = append(putUS, float64(time.Since(t0))/1e3)
	}
	for r := 0; r < 4; r++ {
		for _, key := range keys {
			t0 := time.Now()
			e, gerr := l.Get(key)
			getUS = append(getUS, float64(time.Since(t0))/1e3)
			if gerr != nil || e == nil {
				return 0, 0, 0, 0, fmt.Errorf("ledger probe: get %s: %v", key, gerr)
			}
		}
	}
	for i := 0; i < max(2, n/4); i++ {
		t0 := time.Now()
		if err = l.PutCheckpoint(&ledger.Checkpoint{Key: keys[i], Spec: f.spec, Step: 25, Version: cataero.Version, Data: f.ckpt}); err != nil {
			return
		}
		ckptUS = append(ckptUS, float64(time.Since(t0))/1e3)
	}
	st, err := os.Stat(filepath.Join(dir, keys[0][:2], keys[0]+".json"))
	if err != nil {
		return
	}
	return median(getUS), median(putUS), median(ckptUS), float64(st.Size()), nil
}

// runProbes runs the layer probes on inputs from the seed — converged ideal
// and equilibrium 20x32 fields, their cell states, the equilibrium table
// rectangle and the fields' results and checkpoints — and records their
// per-layer metrics. Each probe reading counts as one sample.
func runProbes(ctx context.Context, rd *readings, r *runner, seed uint64, dir string) error {
	rng := newRand(seed, 4)
	jit := func(tw float64) float64 { return tw * (1 + wallJitter*(2*rng.Float64()-1)) }
	idealK, eqK := &idealKinds[1], &realGasKinds[1]
	fi, err := solveField(ctx, r, idealK, jit(idealK.twall))
	if err != nil {
		return err
	}
	fe, err := solveField(ctx, r, eqK, jit(eqK.twall))
	if err != nil {
		return err
	}
	def, one := fvm.NewPool(0), fvm.NewPool(1)
	defer def.Close()
	defer one.Close()
	var tDef, tOne, tEq []float64
	for b := 0; b < 3; b++ {
		for _, c := range []struct {
			f    *fieldProbe
			pool *fvm.Pool
			dst  *[]float64
		}{{fi, def, &tDef}, {fi, one, &tOne}, {fe, def, &tEq}} {
			t, err := c.f.stepNS(c.pool, 15)
			if err != nil {
				return err
			}
			*c.dst = append(*c.dst, t)
		}
	}
	flux, err := fi.fluxNS(5)
	if err != nil {
		return err
	}
	btri, err := fi.btriUS(5)
	if err != nil {
		return err
	}
	eq := gas.NewEquilibriumAir()
	build, err := tableBuildMS(eq, eqK.problem(fe.twall), 2)
	if err != nil {
		return err
	}
	get, put, ckpt, entry, err := ledgerProbe(filepath.Join(dir, "probe-ledger"), fi, 16)
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"fvm.cell_step_ns", median(tDef)},
		{"fvm.pool_speedup", median(tOne) / median(tDef)},
		{"gas.eq_step_ratio", median(tEq) / median(tDef)},
		{"fvm.flux_ns_per_face", flux},
		{"numerics.btri_us_per_line", btri},
		{"fvm.ckpt_encode_us", median(fi.encUS)},
		{"fvm.ckpt_bytes", float64(len(fi.ckpt))},
		{"gas.ideal_eos_ns", fi.eosNS(9)},
		{"gas.table_eos_ns", fe.eosNS(9)},
		{"chem.equilibrium_us", fe.equilibriumUS(eq)},
		{"gas.table_build_ms", build},
		{"ledger.get_us", get},
		{"ledger.put_us", put},
		{"ledger.put_ckpt_us", ckpt},
		{"ledger.entry_bytes", entry},
	} {
		rd.set(m.name, m.v, 1)
	}
	return nil
}
