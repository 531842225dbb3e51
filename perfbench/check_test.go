package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strings"
	"testing"

	"cataero"
)

func refOutputs(k *caseKind) [2]float64 { return [2]float64{k.out[0].ref, k.out[1].ref} }

func TestCheckOutputs(t *testing.T) {
	for _, ks := range [][]caseKind{idealKinds, realGasKinds} {
		for i := range ks {
			k := &ks[i]
			conv := &cataero.Snapshot{Step: 100, MaxSteps: 3000}
			if err := checkOutputs(k, refOutputs(k), conv); err != nil {
				t.Errorf("%s: reference outputs fail: %v", k.name, err)
			}
			for j := range 2 {
				for _, bad := range []float64{1.1, 0.9, math.NaN(), math.Inf(1)} {
					out := refOutputs(k)
					out[j] *= bad
					if checkOutputs(k, out, conv) == nil {
						t.Errorf("%s: %s scaled by %g passes", k.name, k.out[j].label, bad)
					}
				}
			}
			capped := &cataero.Snapshot{Phase: "solve", Step: 3000, MaxSteps: 3000}
			err := checkOutputs(k, refOutputs(k), capped)
			if k.finiteVolume() != errors.Is(err, errStepCap) {
				t.Errorf("%s: run at its step cap: %v", k.name, err)
			}
		}
	}
}

// A perturbed result counts as a failed op in the tally the metrics read.
func TestPerturbedResultCountsAsFailed(t *testing.T) {
	k := &idealKinds[0]
	var ops tally
	ops.add(checkOutputs(k, refOutputs(k), &cataero.Snapshot{Step: 531, MaxSteps: 2500}))
	out := refOutputs(k)
	out[0] *= 1.05
	ops.add(checkOutputs(k, out, &cataero.Snapshot{Step: 531, MaxSteps: 2500}))
	if ops.attempted != 2 || ops.failed != 1 || ops.failRatio() != 0.5 {
		t.Fatalf("tally %+v", ops)
	}
}

func sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

func TestCheckHit(t *testing.T) {
	result := []byte(`{"class":"ns","q_conv_stag":77198.6,"standoff":0.053}`)
	tag := sum(result)
	body := func(cached bool, res string) []byte {
		b, _ := json.MarshalIndent(map[string]any{"cached": cached, "result": json.RawMessage(res)}, "", "  ")
		return b
	}
	ok := reply{status: http.StatusOK, etag: tag, body: body(true, string(result))}
	if err := checkHit(ok, false, tag); err != nil {
		t.Fatalf("indented cached hit fails: %v", err)
	}
	if err := checkHit(ok, false, ""); err != nil {
		t.Fatalf("first hit of a case fails: %v", err)
	}
	perturbed := ok
	perturbed.body = body(true, strings.Replace(string(result), "77198.6", "77198.7", 1))
	if checkHit(perturbed, false, tag) == nil {
		t.Error("a result that does not hash to its ETag passes")
	}
	uncached := ok
	uncached.body = body(false, string(result))
	if !errors.Is(checkHit(uncached, false, tag), errNotCached) {
		t.Error("an uncached answer to a stored case passes")
	}
	if checkHit(reply{status: http.StatusNotModified, etag: tag}, true, tag) != nil {
		t.Error("a 304 with the held ETag fails")
	}
	if checkHit(reply{status: http.StatusOK, etag: tag, body: ok.body}, true, tag) == nil {
		t.Error("a revalidation answered 200 passes")
	}
	if checkHit(reply{status: http.StatusTooManyRequests}, false, tag) == nil {
		t.Error("a refused request passes")
	}
}

func TestCheckMiss(t *testing.T) {
	k := serveKind
	resp := func(q float64, step int) []byte {
		b, _ := json.Marshal(map[string]any{
			"state": "done", "cached": false,
			"result":   map[string]any{"class": "ns", "q_conv_stag": q, "standoff": k.out[1].ref},
			"snapshot": map[string]any{"phase": "solve", "step": step, "max_steps": 2500},
		})
		return b
	}
	good := missResult{reply: reply{status: http.StatusOK, body: resp(k.out[0].ref, 531)}}
	if err := checkMiss(&good); err != nil {
		t.Fatalf("reference miss fails: %v", err)
	}
	for name, m := range map[string]missResult{
		"perturbed": {reply: reply{status: http.StatusOK, body: resp(1.2*k.out[0].ref, 531)}},
		"capped":    {reply: reply{status: http.StatusOK, body: resp(k.out[0].ref, 2500)}},
		"refused":   {reply: reply{status: http.StatusTooManyRequests, body: []byte(`{}`)}},
	} {
		if checkMiss(&m) == nil {
			t.Errorf("%s miss passes", name)
		}
	}
}
