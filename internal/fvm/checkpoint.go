package fvm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// This file is the durability layer of the finite-volume solver: a stable
// serialization of everything a march needs to resume bit-exactly after a
// process death — the conserved field, the grid nodes (a mid-march refit
// moves them), the implicit integrator's CFL ramp bookkeeping, and the
// finest march's own position (step count, absolute residual target, refit
// state).
//
// Consistency: checkpoints are only taken at step boundaries, by the
// finest-level march of SolveMultilevel itself — never from another
// goroutine — so a checkpoint always captures a state
// the uninterrupted march actually passed through. Resuming from it and
// marching to convergence reproduces the uninterrupted run's terminal state
// bit for bit on the same machine (the parallel sweep partition is fixed by
// GOMAXPROCS, and every reduction is ordered).
//
// Allocation: Solver.Checkpoint fills a per-solver scratch Checkpoint that
// is allocated once and reused, so periodic checkpointing adds no per-step
// garbage to a long march. The sink must therefore encode or copy the
// Checkpoint before returning. Encoding and decoding allocate freely — they
// run once per emission in the sink, off the marching hot path.

// CheckpointFormat is the checkpoint schema version. Encoded checkpoints
// carry it in both the binary magic and the JSON header; a decoder refuses
// other versions, so a resumed process never misreads a foreign layout.
// Bump it (and the magic) on any incompatible change — see CONTRIBUTING.md
// for the compatibility policy.
const CheckpointFormat = 3

// checkpointMagic brands an encoded checkpoint; the trailing digit is the
// format version.
const checkpointMagic = "CATCKPT3"

// Checkpoint is a solver state snapshot at a step boundary, sufficient to
// resume the march exactly where it stopped. Scalar fields travel in a JSON
// header; the bulk float arrays travel as raw little-endian payloads (see
// AppendBinary). Every checkpoint is written by the finest-level march of
// SolveMultilevel, one-level solves included, and the zero value of every
// optional field is the correct "not applicable" marker.
type Checkpoint struct {
	Format int
	NI, NJ int
	// Phase names the finest level that wrote the checkpoint ("solve" for a
	// one-level solve, "level0" for a sequenced one), which is also how a
	// restore is routed: a checkpoint resumes only a solve whose finest
	// level carries the same label, and any other phase restarts the solve
	// cold.
	Phase string
	// Step counts the finest march's completed steps: the share of the
	// step budget already spent.
	Step int
	// Target is the finest march's absolute residual target.
	Target float64

	// Implicit CFL ramp state (zero when the integrator has no ramp).
	CFL       float64
	RampBest  float64
	RampStall int
	RampCap   float64
	RampLows  int
	Fallbacks int

	// Refit position of the finest march: refits done, steps since the
	// last refit, and the refit stall-out window. MarchBest stores 0 for
	// "no best yet" (+Inf has no JSON form).
	Refits       int
	SinceRefit   int
	MarchBest    float64
	MarchStalled int

	// Restarts counts checkpoint restores already applied to the run this
	// checkpoint continues, so a twice-resumed run reports the full chain.
	Restarts int

	// GridX/GridY are the node coordinates, flattened row-major
	// ((NI+1)*(NJ+1) each) — a mid-march refit moves them, so the grid the
	// state lives on must travel with the state.
	GridX, GridY []float64
	// U is the conserved field, flattened (4*NI*NJ).
	U []float64
}

// ckptHeader is the JSON scalar header of an encoded checkpoint. Payload
// lengths are spelled explicitly so the decoder can bound-check before
// touching the raw floats.
type ckptHeader struct {
	Format       int     `json:"format"`
	NI           int     `json:"ni"`
	NJ           int     `json:"nj"`
	Phase        string  `json:"phase"`
	Step         int     `json:"step"`
	Target       float64 `json:"target,omitempty"`
	CFL          float64 `json:"cfl,omitempty"`
	RampBest     float64 `json:"ramp_best,omitempty"`
	RampStall    int     `json:"ramp_stall,omitempty"`
	RampCap      float64 `json:"ramp_cap,omitempty"`
	RampLows     int     `json:"ramp_lows,omitempty"`
	Fallbacks    int     `json:"fallbacks,omitempty"`
	Refits       int     `json:"refits,omitempty"`
	SinceRefit   int     `json:"since_refit,omitempty"`
	MarchBest    float64 `json:"march_best,omitempty"`
	MarchStalled int     `json:"march_stalled,omitempty"`
	Restarts     int     `json:"restarts,omitempty"`
	NGrid        int     `json:"n_grid"`
	NU           int     `json:"n_u"`
}

// AppendBinary encodes the checkpoint onto dst and returns the extended
// slice. Layout: the 8-byte magic, a little-endian uint32 header length,
// the JSON scalar header, the raw little-endian float64 payloads (GridX,
// GridY, U), and a SHA-256 checksum of everything before it.
// The float payloads round-trip bit-exactly — NaN payloads and signed
// zeros included — which a decimal encoding would not guarantee.
func (cp *Checkpoint) AppendBinary(dst []byte) ([]byte, error) {
	h := ckptHeader{
		Format: CheckpointFormat,
		NI:     cp.NI, NJ: cp.NJ,
		Phase: cp.Phase,
		Step:  cp.Step, Target: cp.Target,
		CFL: cp.CFL, RampBest: cp.RampBest, RampStall: cp.RampStall,
		RampCap: cp.RampCap, RampLows: cp.RampLows, Fallbacks: cp.Fallbacks,
		Refits: cp.Refits, SinceRefit: cp.SinceRefit,
		MarchBest: cp.MarchBest, MarchStalled: cp.MarchStalled,
		Restarts: cp.Restarts,
		NGrid:    len(cp.GridX), NU: len(cp.U),
	}
	if len(cp.GridY) != len(cp.GridX) {
		return nil, fmt.Errorf("fvm: checkpoint grid payloads disagree: %d x, %d y", len(cp.GridX), len(cp.GridY))
	}
	hdr, err := json.Marshal(&h)
	if err != nil {
		return nil, fmt.Errorf("fvm: encode checkpoint header: %w", err)
	}
	start := len(dst)
	dst = append(dst, checkpointMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(hdr)))
	dst = append(dst, hdr...)
	for _, payload := range [][]float64{cp.GridX, cp.GridY, cp.U} {
		for _, v := range payload {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	sum := sha256.Sum256(dst[start:])
	return append(dst, sum[:]...), nil
}

// DecodeCheckpoint parses and verifies an encoded checkpoint. Any damage —
// wrong magic, foreign format, truncation, length mismatch, checksum
// failure — is an error; a caller must treat it as "no checkpoint" and
// solve cold rather than resume from a torn file. A checkpoint of another
// format is named by the version digit of its magic.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	const magicLen = len(checkpointMagic)
	if len(data) < magicLen+4+sha256.Size {
		return nil, fmt.Errorf("fvm: checkpoint truncated (%d bytes)", len(data))
	}
	v := data[magicLen-1]
	if !bytes.HasPrefix(data, []byte(checkpointMagic[:magicLen-1])) || v < '0' || v > '9' {
		return nil, fmt.Errorf("fvm: not a checkpoint (bad magic)")
	}
	if v != checkpointMagic[magicLen-1] {
		return nil, fmt.Errorf("fvm: checkpoint format %c, want %d", v, CheckpointFormat)
	}
	body, trailer := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], trailer) {
		return nil, fmt.Errorf("fvm: checkpoint checksum mismatch")
	}
	hlen := int(binary.LittleEndian.Uint32(body[magicLen:]))
	rest := body[magicLen+4:]
	if hlen < 0 || hlen > len(rest) {
		return nil, fmt.Errorf("fvm: checkpoint header length %d exceeds body", hlen)
	}
	var h ckptHeader
	if err := json.Unmarshal(rest[:hlen], &h); err != nil {
		return nil, fmt.Errorf("fvm: decode checkpoint header: %w", err)
	}
	if h.Format != CheckpointFormat {
		return nil, fmt.Errorf("fvm: checkpoint format %d, want %d", h.Format, CheckpointFormat)
	}
	payload := rest[hlen:]
	// Bound each count by the payload before summing: a crafted header's
	// counts could otherwise overflow the sum into a length that matches.
	floats := len(payload) / 8
	total := 0
	for _, n := range []int{h.NGrid, h.NGrid, h.NU} {
		if n < 0 || n > floats {
			return nil, fmt.Errorf("fvm: checkpoint payload length %d outside [0, %d]", n, floats)
		}
		total += n
	}
	if len(payload) != 8*total {
		return nil, fmt.Errorf("fvm: checkpoint payload %d bytes, header promises %d", len(payload), 8*total)
	}
	take := func(n int) []float64 {
		if n == 0 {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		payload = payload[8*n:]
		return out
	}
	cp := &Checkpoint{
		Format: h.Format,
		NI:     h.NI, NJ: h.NJ,
		Phase: h.Phase,
		Step:  h.Step, Target: h.Target,
		CFL: h.CFL, RampBest: h.RampBest, RampStall: h.RampStall,
		RampCap: h.RampCap, RampLows: h.RampLows, Fallbacks: h.Fallbacks,
		Refits: h.Refits, SinceRefit: h.SinceRefit,
		MarchBest: h.MarchBest, MarchStalled: h.MarchStalled,
		Restarts: h.Restarts,
		GridX:    take(h.NGrid), GridY: take(h.NGrid),
		U: take(h.NU),
	}
	return cp, nil
}

// diag assembles the solver's divergence-recovery diagnostics for a
// progress callback; refits is supplied by the marching driver, which
// counts them.
func (s *Solver) diag(refits int) Diag {
	d := Diag{Refits: refits, Restarts: s.restarts}
	if s.imp != nil {
		d.Fallbacks = s.imp.fallbacks
	}
	return d
}

// Checkpoint captures the solver's state at the current step boundary into
// a reusable scratch Checkpoint and returns it. Call it only between steps
// on the marching goroutine — SolveMultilevel's finest march does this for
// Options.CheckpointEvery and fills in its own position — and encode or
// copy the result before the next call, which overwrites it. After the
// first call the fill is allocation-free.
func (s *Solver) Checkpoint() *Checkpoint {
	cp := s.ckpt
	if cp == nil {
		cp = &Checkpoint{
			GridX: make([]float64, (s.ni+1)*(s.nj+1)),
			GridY: make([]float64, (s.ni+1)*(s.nj+1)),
			U:     make([]float64, 4*s.ni*s.nj),
		}
		s.ckpt = cp
	}
	cp.Format = CheckpointFormat
	cp.NI, cp.NJ = s.ni, s.nj
	cp.Phase = s.phase
	cp.Step, cp.Target = 0, 0
	cp.Refits, cp.SinceRefit, cp.MarchBest, cp.MarchStalled = 0, 0, 0, 0
	cp.Restarts = s.restarts
	nj1 := s.nj + 1
	for i := 0; i <= s.ni; i++ {
		copy(cp.GridX[i*nj1:(i+1)*nj1], s.G.X[i])
		copy(cp.GridY[i*nj1:(i+1)*nj1], s.G.Y[i])
	}
	for k := range s.U {
		copy(cp.U[4*k:4*k+4], s.U[k][:])
	}
	cp.CFL, cp.RampBest, cp.RampStall, cp.RampCap, cp.RampLows, cp.Fallbacks = 0, 0, 0, 0, 0, 0
	if st := s.imp; st != nil {
		cp.CFL, cp.RampBest, cp.RampStall = st.cfl, st.best, st.stall
		cp.RampCap, cp.RampLows, cp.Fallbacks = st.cap, st.lows, st.fallbacks
	}
	return cp
}

// Restore overwrites the solver's state from a checkpoint taken by a solver
// of identical shape and configuration: grid nodes (rebuilding the metrics,
// so refitted geometry survives), the conserved field and the integrator's
// ramp state. The march position (step count, target, refit state) is the
// caller's to resume: SolveMultilevel reads it from the same checkpoint and
// continues the finest march exactly where it stopped.
func (s *Solver) Restore(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("fvm: restore from nil checkpoint")
	}
	if cp.Format != CheckpointFormat {
		return fmt.Errorf("fvm: restore checkpoint format %d, want %d", cp.Format, CheckpointFormat)
	}
	if cp.NI != s.ni || cp.NJ != s.nj {
		return fmt.Errorf("fvm: restore checkpoint for %dx%d grid onto %dx%d solver", cp.NI, cp.NJ, s.ni, s.nj)
	}
	if len(cp.U) != 4*s.ni*s.nj {
		return fmt.Errorf("fvm: restore checkpoint with %d state floats, want %d", len(cp.U), 4*s.ni*s.nj)
	}
	if len(cp.GridX) > 0 {
		if err := s.G.RestoreNodes(cp.GridX, cp.GridY); err != nil {
			return err
		}
		s.met = s.G.Metrics()
	}
	for k := range s.U {
		copy(s.U[k][:], cp.U[4*k:4*k+4])
	}
	if st := s.imp; st != nil && cp.CFL > 0 {
		st.cfl, st.best, st.stall = cp.CFL, cp.RampBest, cp.RampStall
		st.cap, st.lows, st.fallbacks = cp.RampCap, cp.RampLows, cp.Fallbacks
	}
	s.restarts = cp.Restarts + 1
	return nil
}
