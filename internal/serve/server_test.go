package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cataero"
	"cataero/internal/ledger"
)

// eblProblem is a fast-solving entry case; vary vinf for distinct keys.
func eblProblem(vinf float64) cataero.Problem {
	return cataero.Problem{
		Class:     cataero.EBL,
		Chemistry: cataero.EquilibriumAir,
		PInf:      4.8, TInf: 217, VInf: vinf,
		NoseRadius: 0.6, TWall: 1200,
		NStations: 12,
	}
}

// slowNSProblem holds a worker slot long enough for queueing tests.
func slowNSProblem() cataero.Problem {
	return cataero.Problem{
		Class:     cataero.NS,
		Chemistry: cataero.EquilibriumAir,
		PInf:      5474.9, TInf: 216.65, VInf: 1770.4,
		NoseRadius: 0.3, TWall: 1500,
		NI: 48, NJ: 64, MaxSteps: 500000,
	}
}

// newTestServer builds a Server + httptest front end over a temp ledger.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Session == nil {
		cfg.Session = cataero.NewSession()
	}
	if cfg.Ledger == nil {
		l, err := ledger.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Ledger = l
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postCase(t *testing.T, url string, p cataero.Problem, hdr map[string]string) (*http.Response, runView) {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v runView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, v
}

// TestSubmitSolveThenLedgerHit is the acceptance path end to end: the same
// case submitted twice solves once — the second response is a ledger hit
// with a byte-identical result — and a restarted server over the same
// ledger directory still hits.
func TestSubmitSolveThenLedgerHit(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l})

	resp, first := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6740), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit: status %d %+v", resp.StatusCode, first)
	}
	if first.Cached {
		t.Fatal("first submit reported cached")
	}
	if first.State != cataero.RunDone.String() || len(first.Result) == 0 || first.Error != "" {
		t.Fatalf("first submit did not finish cleanly: %+v", first)
	}
	if first.Solver == "" || len(first.Snapshot) == 0 {
		t.Fatalf("first submit missing provenance: %+v", first)
	}

	resp, second := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6740), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	if !second.Cached {
		t.Fatalf("second submit was not a ledger hit: %+v", second)
	}
	if second.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", first.Key, second.Key)
	}
	if !bytes.Equal(second.Result, first.Result) {
		t.Fatalf("cached result differs from solved result:\n%s\nvs\n%s", second.Result, first.Result)
	}
	if st := l.Stats(); st.Hits != 1 || st.Puts != 1 {
		t.Fatalf("ledger stats after hit: %+v", st)
	}

	// "Restart": a fresh session and server over the same directory.
	l2, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Ledger: l2})
	resp, third := postCase(t, ts2.URL+"/api/runs?wait=1", eblProblem(6740), nil)
	if resp.StatusCode != http.StatusOK || !third.Cached {
		t.Fatalf("post-restart submit not served from ledger: status %d %+v", resp.StatusCode, third)
	}
	if !bytes.Equal(third.Result, first.Result) {
		t.Fatal("post-restart cached result differs")
	}
}

// TestFieldOrderSharesKey: the same case spelled with a different JSON field
// order lands on the same ledger entry.
func TestFieldOrderSharesKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, first := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(6900), nil)
	if resp.StatusCode != http.StatusOK || first.Cached {
		t.Fatalf("seed submit: status %d %+v", resp.StatusCode, first)
	}

	// Hand-built JSON with fields in reverse-ish order.
	raw := `{"n_stations":12,"t_wall":1200,"nose_radius":0.6,"v_inf":6900,"t_inf":217,"p_inf":4.8,"chemistry":"equilibrium-air","class":"ebl"}`
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/runs?wait=1", strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var second runView
	if err := json.NewDecoder(resp2.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Key != first.Key {
		t.Fatalf("permuted spec missed the ledger: %+v (want key %s)", second, first.Key)
	}
}

// TestQuotaExhausted429: beyond the burst, submissions come back 429 with a
// Retry-After header; ledger hits are free and never charged.
func TestQuotaExhausted429(t *testing.T) {
	_, ts := newTestServer(t, Config{QuotaRate: 0.0001, QuotaBurst: 1})

	resp, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(7000), map[string]string{"X-API-Key": "alice"})
	if resp.StatusCode != http.StatusOK || v.Error != "" {
		t.Fatalf("first submit within burst: status %d %+v", resp.StatusCode, v)
	}

	resp, v = postCase(t, ts.URL+"/api/runs", eblProblem(7100), map[string]string{"X-API-Key": "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("beyond burst: status %d %+v, want 429", resp.StatusCode, v)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if v.Error == "" {
		t.Fatal("429 without error body")
	}

	// A ledger hit does not spend quota even for the throttled client.
	resp, v = postCase(t, ts.URL+"/api/runs", eblProblem(7000), map[string]string{"X-API-Key": "alice"})
	if resp.StatusCode != http.StatusOK || !v.Cached {
		t.Fatalf("ledger hit throttled: status %d %+v", resp.StatusCode, v)
	}

	// Quotas are per client: bob is unaffected.
	resp, v = postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(7100), map[string]string{"X-API-Key": "bob"})
	if resp.StatusCode != http.StatusOK || v.Error != "" {
		t.Fatalf("independent client throttled: status %d %+v", resp.StatusCode, v)
	}
}

// TestCoalescing: two concurrent submissions of one case share a single
// solve; the second response is marked coalesced and carries the same run ID.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Session: cataero.NewSession(cataero.WithWorkers(1))})

	// Hold the single worker slot so the coalescing target stays in flight.
	_, blocker := postCase(t, ts.URL+"/api/runs", slowNSProblem(), nil)
	if blocker.ID == "" {
		t.Fatalf("blocker not registered: %+v", blocker)
	}

	_, a := postCase(t, ts.URL+"/api/runs", eblProblem(7200), nil)
	if a.ID == "" || a.Coalesced {
		t.Fatalf("first submission: %+v", a)
	}
	_, b := postCase(t, ts.URL+"/api/runs", eblProblem(7200), nil)
	if !b.Coalesced || b.ID != a.ID {
		t.Fatalf("duplicate did not coalesce: %+v (want id %s)", b, a.ID)
	}

	// Cancel the blocker so the coalesced run can finish.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/runs/"+blocker.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/runs/" + a.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v runView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State == cataero.RunDone.String() {
			if v.Error != "" || len(v.Result) == 0 {
				t.Fatalf("coalesced run failed: %+v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalesced run never finished: %+v", v)
		}
		time.Sleep(20 * time.Millisecond)
	}
	_ = s
}

// TestCancelQueuedRun: with one worker held, a queued run canceled via
// DELETE finishes with an error and no result.
func TestCancelQueuedRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: cataero.NewSession(cataero.WithWorkers(1))})

	_, blocker := postCase(t, ts.URL+"/api/runs", slowNSProblem(), nil)
	_, queued := postCase(t, ts.URL+"/api/runs", eblProblem(7300), nil)
	if queued.State != cataero.RunQueued.String() {
		t.Fatalf("second run not queued behind the single worker: %+v", queued)
	}

	for _, id := range []string{queued.ID, blocker.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/runs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/api/runs/" + queued.ID)
		if err != nil {
			t.Fatal(err)
		}
		var v runView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State == cataero.RunDone.String() {
			if v.Error == "" {
				t.Fatalf("canceled run reported no error: %+v", v)
			}
			if len(v.Result) != 0 {
				t.Fatalf("canceled run carries a result: %+v", v)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled run never settled: %+v", v)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerWidthIsSessionWidth: the session's admission width is the
// server's only bound — two distinct solves on a two-wide session run at
// once, with no second width to match.
func TestServerWidthIsSessionWidth(t *testing.T) {
	_, ts := newTestServer(t, Config{Session: cataero.NewSession(cataero.WithWorkers(2))})
	var ids []string
	for i, lane := range []string{"normal", "high"} {
		p := slowNSProblem()
		p.TWall += 100 * float64(i) // distinct keys
		_, v := postCase(t, ts.URL+"/api/runs", p, map[string]string{"X-Priority": lane})
		if v.ID == "" || v.Coalesced || v.Priority != lane {
			t.Fatalf("%s submission: %+v", lane, v)
		}
		ids = append(ids, v.ID)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			resp, err := http.Get(ts.URL + "/api/runs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var v runView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if v.State == cataero.RunRunning.String() {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %s never ran beside the other: %+v", id, v)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestEventsStream: the SSE endpoint emits snapshot events and a terminal
// done event carrying the result.
func TestEventsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	_, v := postCase(t, ts.URL+"/api/runs", eblProblem(7400), nil)
	if v.ID == "" {
		t.Fatalf("submission not registered: %+v", v)
	}
	resp, err := http.Get(ts.URL + "/api/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var sawSnapshot, sawDone bool
	var event string
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "snapshot":
				sawSnapshot = true
			case "done":
				sawDone = true
				var final runView
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done event payload: %v", err)
				}
				if final.State != cataero.RunDone.String() || len(final.Result) == 0 {
					t.Fatalf("done event incomplete: %+v", final)
				}
			}
		}
		if sawDone {
			break
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSnapshot || !sawDone {
		t.Fatalf("stream saw snapshot=%v done=%v", sawSnapshot, sawDone)
	}
}

// TestBatch: the batch endpoint resolves every case, duplicates inside the
// batch coalesce onto one solve, and a repeat batch is all ledger hits.
func TestBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	batch := []cataero.Problem{eblProblem(7500), eblProblem(7500), eblProblem(7600)}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/batch?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []runView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 3 {
		t.Fatalf("batch returned %d views", len(views))
	}
	for i, v := range views {
		if v.State != cataero.RunDone.String() || v.Error != "" || len(v.Result) == 0 {
			t.Fatalf("batch case %d did not finish: %+v", i, v)
		}
	}
	if views[0].Key != views[1].Key || !bytes.Equal(views[0].Result, views[1].Result) {
		t.Fatal("duplicate batch cases diverged")
	}
	if views[1].Key == views[2].Key {
		t.Fatal("distinct batch cases collided")
	}

	// Same batch again: everything is now a ledger hit.
	resp2, err := http.Post(ts.URL+"/api/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var again []runView
	if err := json.NewDecoder(resp2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	for i, v := range again {
		if !v.Cached {
			t.Fatalf("repeat batch case %d not cached: %+v", i, v)
		}
	}
}

// TestLedgerEndpoints: entries written by solves are visible through the
// ledger API.
func TestLedgerEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(7700), nil)
	if v.Error != "" {
		t.Fatalf("seed solve failed: %+v", v)
	}

	resp, err := http.Get(ts.URL + "/api/ledger")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metas []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metas); err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0]["key"] != v.Key {
		t.Fatalf("ledger list: %+v (want key %s)", metas, v.Key)
	}

	resp2, err := http.Get(ts.URL + "/api/ledger/" + v.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var entry ledger.Entry
	if err := json.NewDecoder(resp2.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	if entry.Key != v.Key || len(entry.Result) == 0 || entry.Solver == "" {
		t.Fatalf("ledger get: %+v", entry)
	}
}

// TestRequestValidation covers the 4xx paths.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Unknown run ID.
	resp, err := http.Get(ts.URL + "/api/runs/r999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run: status %d", resp.StatusCode)
	}

	// Malformed body.
	resp, err = http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", resp.StatusCode)
	}

	// Unphysical case (no velocity) is rejected at normalization.
	resp, err = http.Post(ts.URL+"/api/runs", "application/json", strings.NewReader(`{"class":"ebl"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid case: status %d", resp.StatusCode)
	}

	// An unknown flux kernel is rejected before admission: no run exists.
	resp, err = http.Post(ts.URL+"/api/runs?wait=1", "application/json", strings.NewReader(
		`{"class":"ns","p_inf":100,"t_inf":250,"v_inf":2000,"nose_radius":0.3,"flux":"bogus"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown flux: status %d", resp.StatusCode)
	}
	// So is a negative station count, which a solve would turn into a
	// panic in the session's goroutine, taking the whole server down. The
	// listing below shows the server still answering.
	resp, err = http.Post(ts.URL+"/api/runs?wait=1", "application/json", strings.NewReader(
		`{"class":"vsl","chemistry":"equilibrium-air","p_inf":4.8,"t_inf":217,"v_inf":6740,"nose_radius":0.6,"n_stations":-5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative n_stations: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	var views []runView
	err = json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if err != nil || len(views) != 0 {
		t.Fatalf("runs after rejected requests: %+v (%v)", views, err)
	}

	// Unknown priority lane.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/runs", strings.NewReader("[]"))
	req.Header.Set("X-Priority", "urgent")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status %d", resp.StatusCode)
	}

	// Empty batch.
	resp, err = http.Post(ts.URL+"/api/batch", "application/json", strings.NewReader("[]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
}

func TestHealth(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["version"] != cataero.Version {
		t.Fatalf("health: %+v", h)
	}
	if _, ok := h["ledger"]; !ok {
		t.Fatal("health missing ledger stats")
	}
}

// TestListRuns: submitted runs appear in the listing.
func TestListRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, v := postCase(t, ts.URL+"/api/runs?wait=1", eblProblem(7800), nil)
	resp, err := http.Get(ts.URL + "/api/runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var views []runView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	if len(views) != 1 || views[0].ID != v.ID {
		t.Fatalf("run listing: %+v", views)
	}
}
