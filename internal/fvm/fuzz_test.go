package fvm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzDecodeCheckpoint drives DecodeCheckpoint with arbitrary checkpoint
// bodies. The target seals each body with a valid SHA-256 trailer, so
// mutations reach the header and payload parsing instead of stopping at the
// checksum. It must never panic, and a checkpoint it accepts has the payload
// lengths its header promises and round-trips through AppendBinary.
//
//	go test -run '^$' -fuzz '^FuzzDecodeCheckpoint$' -fuzztime 10s ./internal/fvm
func FuzzDecodeCheckpoint(f *testing.F) {
	// A 2x2 implicit solver's checkpoint as taken, then with a frozen
	// limiter's latch and offsets, then with a refitted two-level march's
	// position. The seeds stay small because the fuzzer minimizes each new
	// input at a cost quadratic in its length.
	g, o, err := ReferenceViscousCase(2, 2, TimeSteppingImplicit)
	if err != nil {
		f.Fatal(err)
	}
	o.MUSCL = false
	s, err := New(g, o)
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	target := 5e-4 * s.Step() // the finest march's target rule
	s.Step()
	s.Step()
	plain := *s.Checkpoint()
	plain.Step, plain.Target = 3, target
	frozen := plain
	frozen.LimMode, frozen.LimFirst = limFrozen, 0.5
	frozen.FrzI, frozen.FrzJ = []float64{0.25, -0.125}, []float64{0, math.Copysign(0, -1)}
	refitted := plain
	refitted.Phase, refitted.Refits, refitted.SinceRefit = "level0", 1, 7
	refitted.MarchBest, refitted.MarchStalled = 2.5e-3, 4
	for _, cp := range []*Checkpoint{&plain, &frozen, &refitted} {
		enc, err := cp.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc[:len(enc)-sha256.Size])
	}
	f.Add(overflowBody())
	f.Add(format1Body())

	f.Fuzz(func(t *testing.T, body []byte) {
		cp, err := DecodeCheckpoint(seal(body))
		if err != nil {
			return
		}
		var h ckptHeader
		rest := body[len(checkpointMagic):]
		if err := json.Unmarshal(rest[4:4+binary.LittleEndian.Uint32(rest)], &h); err != nil {
			t.Fatalf("accepted a header that does not parse: %v", err)
		}
		if len(cp.GridX) != h.NGrid || len(cp.GridY) != h.NGrid || len(cp.U) != h.NU ||
			len(cp.FrzI) != h.NFrzI || len(cp.FrzJ) != h.NFrzJ {
			t.Fatalf("payload lengths %d/%d/%d/%d/%d, header promises %d/%d/%d/%d/%d",
				len(cp.GridX), len(cp.GridY), len(cp.U), len(cp.FrzI), len(cp.FrzJ),
				h.NGrid, h.NGrid, h.NU, h.NFrzI, h.NFrzJ)
		}
		enc, err := cp.AppendBinary(nil)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatalf("decode of the re-encoding: %v", err)
		}
		if !sameCheckpoint(cp, again) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", cp, again)
		}
	})
}

// sameCheckpoint reports whether two checkpoints agree field for field,
// float payloads bit for bit.
func sameCheckpoint(a, b *Checkpoint) bool {
	sa, sb := *a, *b
	for _, p := range [][2]*[]float64{
		{&sa.GridX, &sb.GridX}, {&sa.GridY, &sb.GridY}, {&sa.U, &sb.U}, {&sa.FrzI, &sb.FrzI}, {&sa.FrzJ, &sb.FrzJ},
	} {
		x, y := *p[0], *p[1]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		*p[0], *p[1] = nil, nil
	}
	return reflect.DeepEqual(sa, sb)
}
