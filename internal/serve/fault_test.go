package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cataero"
	"cataero/internal/faultinject"
	"cataero/internal/fvm"
	"cataero/internal/ledger"
)

// ckptNSProblem is an NS case slow enough to interrupt mid-march (several
// hundred implicit steps on a 24x32 grid) yet quick enough to solve to
// completion inside a test. Sequencing is forced off so the whole march
// runs in the single "solve" phase.
func ckptNSProblem() cataero.Problem {
	return cataero.Problem{
		Class:     cataero.NS,
		Chemistry: cataero.EquilibriumAir,
		PInf:      5474.9, TInf: 216.65, VInf: 1770.4,
		NoseRadius: 0.3, TWall: 1500,
		NI: 32, NJ: 48, MaxSteps: 4000,
		TimeStepping:   fvm.TimeSteppingImplicit,
		GridSequencing: cataero.ToggleOff,
	}
}

// snapStep extracts the terminal step count from a snapshot document.
func snapStep(t *testing.T, snap json.RawMessage) int {
	t.Helper()
	var v struct {
		Step int `json:"step"`
	}
	if err := json.Unmarshal(snap, &v); err != nil {
		t.Fatalf("parse snapshot: %v", err)
	}
	return v.Step
}

// TestDrainRejectsSubmissions: a draining server answers new work with 503 +
// Retry-After on both the single-run and batch endpoints.
func TestDrainRejectsSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, v := postCase(t, ts.URL+"/api/runs", eblProblem(6600), nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: status %d %+v, want 503", resp.StatusCode, v)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After header")
	}
	if v.Error == "" {
		t.Fatal("503 without error body")
	}

	resp2, err := http.Post(ts.URL+"/api/batch", "application/json",
		strings.NewReader(`[{"class":"ebl","p_inf":4.8,"t_inf":217,"v_inf":6600,"nose_radius":0.6,"t_wall":1200}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining batch: status %d, want 503", resp2.StatusCode)
	}
}

// TestDrainCheckpointsAndRecoverResumes is the crash-safety acceptance path:
// a solve interrupted by Drain leaves a resumable checkpoint in the ledger,
// and a new server over the same directory resumes it — re-submitted by
// Recover, or re-posted to a server with no checkpoint cadence, since a
// stored checkpoint is always resumed. The resumed run converges to a
// result byte-identical to an uninterrupted solve while marching strictly
// fewer steps in the resumed process.
func TestDrainCheckpointsAndRecoverResumes(t *testing.T) {
	// Uninterrupted reference solve over its own ledger. Compare stored
	// ledger artifacts, not HTTP bodies — the response encoder re-indents.
	lCold, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, tsCold := newTestServer(t, Config{Ledger: lCold})
	resp, cold := postCase(t, tsCold.URL+"/api/runs?wait=1", ckptNSProblem(), nil)
	if resp.StatusCode != http.StatusOK || cold.Error != "" || len(cold.Result) == 0 {
		t.Fatalf("cold solve failed: status %d %+v", resp.StatusCode, cold)
	}
	coldEntry, err := lCold.Get(cold.Key)
	if err != nil || coldEntry == nil {
		t.Fatalf("cold result not in ledger (err %v)", err)
	}
	coldStep := snapStep(t, cold.Snapshot)
	if coldStep <= 50 {
		t.Fatalf("cold solve finished in %d steps; too fast to interrupt reliably", coldStep)
	}

	for _, restart := range []struct {
		name   string
		finish func(t *testing.T, l *ledger.Ledger) *ledger.Entry
	}{
		{"recover", func(t *testing.T, l *ledger.Ledger) *ledger.Entry {
			s, _ := newTestServer(t, Config{Ledger: l, CheckpointEvery: 5})
			n, err := s.Recover()
			if err != nil || n != 1 {
				t.Fatalf("recover: %d resumed, err %v; want 1", n, err)
			}
			deadline := time.Now().Add(120 * time.Second)
			for {
				if entry, _ := l.Get(cold.Key); entry != nil {
					return entry
				}
				if time.Now().After(deadline) {
					t.Fatal("recovered run never produced a result")
				}
				time.Sleep(20 * time.Millisecond)
			}
		}},
		{"repost", func(t *testing.T, l *ledger.Ledger) *ledger.Entry {
			_, ts := newTestServer(t, Config{Ledger: l})
			resp, v := postCase(t, ts.URL+"/api/runs?wait=1", ckptNSProblem(), nil)
			if resp.StatusCode != http.StatusOK || v.Error != "" || v.Cached {
				t.Fatalf("re-posted solve: status %d %+v", resp.StatusCode, v)
			}
			entry, err := l.Get(cold.Key)
			if err != nil || entry == nil {
				t.Fatalf("re-posted result not in ledger (err %v)", err)
			}
			return entry
		}},
	} {
		t.Run(restart.name, func(t *testing.T) {
			dir, ck := drainMidSolve(t, cold.Key)
			// A restarted process: a new ledger handle over the same directory.
			l, err := ledger.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			entry := restart.finish(t, l)
			if !bytes.Equal(entry.Result, coldEntry.Result) {
				t.Fatalf("resumed result differs from uninterrupted solve (resumed step %d, ckpt step %d, cold step %d):\n%.300s\nvs\n%.300s",
					snapStep(t, entry.Snapshot), ck.Step, coldStep, entry.Result, coldEntry.Result)
			}
			resumedStep := snapStep(t, entry.Snapshot)
			if resumedStep >= coldStep {
				t.Fatalf("resumed run marched %d steps, cold %d; resume saved nothing", resumedStep, coldStep)
			}
			if resumedStep+ck.Step < coldStep {
				t.Fatalf("resumed steps %d + checkpoint step %d fall short of cold %d", resumedStep, ck.Step, coldStep)
			}
			// The landed result supersedes the checkpoint.
			if c, _ := l.GetCheckpoint(cold.Key); c != nil {
				t.Fatal("checkpoint survived its run's result")
			}
		})
	}
}

// drainMidSolve posts ckptNSProblem to a server checkpointing every few
// steps over a fresh ledger directory and drains it mid-march. It returns
// the directory and the checkpoint that survived the drain.
func drainMidSolve(t *testing.T, key string) (string, *ledger.Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Ledger: l, CheckpointEvery: 5})
	_, victim := postCase(t, ts.URL+"/api/runs", ckptNSProblem(), nil)
	if victim.ID == "" || victim.Key != key {
		t.Fatalf("victim submission: %+v (cold key %s)", victim, key)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		if c, err := l.GetCheckpoint(key); err == nil && c != nil && c.Step > 0 {
			break
		}
		if e, _ := l.Get(key); e != nil {
			t.Fatal("solve finished before the first checkpoint; case too fast for this test")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if e, _ := l.Get(key); e != nil {
		t.Fatal("drained run still produced a result entry")
	}
	ck, err := l.GetCheckpoint(key)
	if err != nil || ck == nil {
		t.Fatalf("no checkpoint survived the drain (err %v)", err)
	}
	if len(ck.Spec) == 0 {
		t.Fatal("checkpoint stored without its case spec")
	}
	return dir, ck
}

// TestRecoverDropsStaleCheckpoint: a checkpoint whose result already landed
// is deleted, not re-submitted.
func TestRecoverDropsStaleCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l})
	_, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6500), nil)
	if v.Error != "" {
		t.Fatalf("seed solve failed: %+v", v)
	}
	// Plant a leftover checkpoint under the completed run's key.
	err = l.PutCheckpoint(&ledger.Checkpoint{Key: v.Key, Spec: []byte(`{}`), Step: 3, Data: []byte("stale")})
	if err != nil {
		t.Fatal(err)
	}

	l2, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := newTestServer(t, Config{Ledger: l2, CheckpointEvery: 5})
	n, err := s2.Recover()
	if err != nil || n != 0 {
		t.Fatalf("recover: %d resumed, err %v; want 0", n, err)
	}
	if c, _ := l2.GetCheckpoint(v.Key); c != nil {
		t.Fatal("stale checkpoint survived recovery")
	}
}

// TestConditionalRequests: cached responses carry an ETag (the result
// checksum) and If-None-Match answers 304 from the ETag cache without
// re-reading the ledger artifact.
func TestConditionalRequests(t *testing.T) {
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l})
	_, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6800), nil)
	if v.Error != "" {
		t.Fatalf("seed solve failed: %+v", v)
	}

	// The ledger endpoint serves the entry with its checksum as ETag.
	resp, err := http.Get(ts.URL + "/api/ledger/" + v.Key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("ledger get: status %d etag %q", resp.StatusCode, etag)
	}

	hitsBefore := l.Stats().Hits
	for _, url := range []string{ts.URL + "/api/ledger/" + v.Key, ts.URL + "/api/runs?wait=1"} {
		method, body := http.MethodGet, ""
		if strings.Contains(url, "/api/runs") {
			method = http.MethodPost
			raw, err := json.Marshal(eblProblem(6800))
			if err != nil {
				t.Fatal(err)
			}
			body = string(raw)
		}
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%s %s with matching If-None-Match: status %d, want 304", method, url, resp.StatusCode)
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Fatalf("304 ETag %q, want %q", got, etag)
		}
	}
	if hits := l.Stats().Hits; hits != hitsBefore {
		t.Fatalf("304 responses read the ledger: hits %d -> %d", hitsBefore, hits)
	}

	// A stale validator gets the full cached response, with the current tag.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/ledger/"+v.Key, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != etag {
		t.Fatalf("stale validator: status %d etag %q", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// TestDeadlineCheckpointsThenCancels: a run exceeding its X-Deadline-Ms
// bound fails with a deadline error — after persisting a checkpoint, so the
// work already done survives.
func TestDeadlineCheckpointsThenCancels(t *testing.T) {
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l, CheckpointEvery: 5})

	// An ideal-gas 48x64 march has no EOS table to build, so its first
	// checkpoints land within tens of milliseconds even under -race, yet it
	// needs thousands of steps (seconds) to converge: the bound reliably
	// fires mid-solve, after a checkpoint.
	p := slowNSProblem()
	p.Chemistry = cataero.IdealGas
	resp, v := postCase(t, ts.URL+"/api/runs?wait=1", p,
		map[string]string{"X-Deadline-Ms": "400"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("deadlined solve: status %d %+v", resp.StatusCode, v)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("deadlined solve error %q", v.Error)
	}
	if len(v.Result) != 0 {
		t.Fatal("deadlined solve carries a result")
	}
	ck, err := l.GetCheckpoint(v.Key)
	if err != nil || ck == nil || ck.Step == 0 {
		t.Fatalf("no checkpoint survived the deadline (ck %+v, err %v)", ck, err)
	}

	// Malformed deadline headers are rejected up front, and so are counts
	// whose Duration would overflow: 10000000000000 ms wrapped to a negative
	// (no) deadline and 18446744073710 ms to one of 448 µs.
	for _, bad := range []string{"0", "-5", "soon", "1.5", "10000000000000", "18446744073710"} {
		resp, _ := postCase(t, ts.URL+"/api/runs", eblProblem(6400),
			map[string]string{"X-Deadline-Ms": bad})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("X-Deadline-Ms %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestLedgerWriteFailureDegradesToCacheless: a ledger that cannot persist —
// full or read-only disk, simulated by fault injection — must never fail
// the run; the server degrades to cache-less operation.
func TestLedgerWriteFailureDegradesToCacheless(t *testing.T) {
	defer faultinject.Reset()
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l, CheckpointEvery: 5})
	boom := errors.New("read-only filesystem")
	faultinject.Set("ledger.put", func() error { return boom })
	faultinject.Set("ledger.put-checkpoint", func() error { return boom })

	resp, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6700), nil)
	if resp.StatusCode != http.StatusOK || v.Error != "" || len(v.Result) == 0 {
		t.Fatalf("solve failed under ledger write failure: status %d %+v", resp.StatusCode, v)
	}
	if v.Cached {
		t.Fatal("first solve reported cached")
	}
	if e, _ := l.Get(v.Key); e != nil {
		t.Fatal("entry landed despite injected write failure")
	}

	// Still write-broken: the same case solves again rather than erroring.
	resp, again := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6700), nil)
	if resp.StatusCode != http.StatusOK || again.Error != "" || again.Cached {
		t.Fatalf("cache-less re-solve: status %d %+v", resp.StatusCode, again)
	}
	if !bytes.Equal(again.Result, v.Result) {
		t.Fatal("re-solved result differs")
	}

	// Ledger heals: the next solve persists normally.
	faultinject.Reset()
	if _, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6700), nil); v.Error != "" {
		t.Fatalf("post-heal solve failed: %+v", v)
	}
	if e, _ := l.Get(v.Key); e == nil {
		t.Fatal("entry missing after ledger healed")
	}
}

// TestRunningUntilResultStored: the session run finishes before execute has
// written the ledger entry and published the result, and in that window a
// poll must report the run as running — never done without a result.
// The ledger.put fault point holds execute inside Ledger.Put.
func TestRunningUntilResultStored(t *testing.T) {
	defer faultinject.Reset()
	_, ts := newTestServer(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	faultinject.Set("ledger.put", func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	})
	var released sync.Once
	unblock := func() { released.Do(func() { close(release) }) }
	defer unblock()

	_, v := postCase(t, ts.URL+"/api/runs", eblProblem(7300), nil)
	if v.ID == "" {
		t.Fatalf("run not registered: %+v", v)
	}
	select {
	case <-entered:
	case <-time.After(30 * time.Second):
		t.Fatal("run never reached the ledger write")
	}
	poll := func() runView {
		t.Helper()
		resp, err := http.Get(ts.URL + "/api/runs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got runView
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	held := poll()
	if held.State != cataero.RunRunning.String() || len(held.Result) != 0 || held.Error != "" {
		t.Fatalf("run held in the ledger write: state %q, result %d bytes, error %q; want running with neither",
			held.State, len(held.Result), held.Error)
	}
	var snap struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(held.Snapshot, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != cataero.RunRunning.String() || snap.Error != "" {
		t.Fatalf("embedded snapshot state %q error %q while the result is unstored, want running", snap.State, snap.Error)
	}

	unblock()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := poll()
		if got.State == cataero.RunDone.String() {
			if got.Error != "" || len(got.Result) == 0 {
				t.Fatalf("finished run without its result: %+v", got)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("run never finished: %+v", got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
