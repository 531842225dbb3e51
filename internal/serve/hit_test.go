package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cataero"
	"cataero/internal/ledger"
)

// storeHit files a synthetic result under p's case key, so a submission of
// p is a ledger hit without a solve. It returns p's request body and key.
func storeHit(t *testing.T, s *Server, p cataero.Problem, result string, elapsedMS float64) ([]byte, string) {
	t.Helper()
	job, err := Prepare(s.cfg.Session, p)
	if err != nil {
		t.Fatal(err)
	}
	err = s.cfg.Ledger.Put(&ledger.Entry{
		Key: job.Key, Spec: job.Spec, Result: json.RawMessage(result),
		Snapshot: json.RawMessage(`{"state":"done","step":3}`),
		Solver:   "ebl", Version: cataero.Version, ElapsedMS: elapsedMS,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return body, job.Key
}

// rawReply is one HTTP exchange as bytes.
type rawReply struct {
	status int
	etag   string
	ctype  string
	body   []byte
}

// postRaw sends one submission body and returns the reply unparsed.
func postRaw(t *testing.T, url string, body []byte) rawReply {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rawReply{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"), data}
}

// oldHitReply renders a ledger hit the way the server did before it kept
// rendered hits: a runView built field by field from the entry, encoded
// indented straight to the response, with the entry checksum as ETag.
func oldHitReply(t *testing.T, dir, key string) rawReply {
	t.Helper()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := l.Get(key)
	if err != nil || e == nil {
		t.Fatalf("reference get %s: %v, %v", key, e, err)
	}
	rec := httptest.NewRecorder()
	rec.Header().Set("ETag", `"`+e.Checksum+`"`)
	rec.Header().Set("Content-Type", "application/json")
	rec.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rec)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&runView{
		Key:        e.Key,
		State:      cataero.RunDone.String(),
		Cached:     true,
		Snapshot:   e.Snapshot,
		Result:     e.Result,
		SolvedInMS: e.ElapsedMS,
		Solver:     e.Solver,
		Version:    e.Version,
	}); err != nil {
		t.Fatal(err)
	}
	return rawReply{rec.Code, rec.Header().Get("ETag"), rec.Header().Get("Content-Type"), rec.Body.Bytes()}
}

// TestRepeatHitBytesUnchanged: the first hit and every repeat hit of an
// entry write the status, ETag and body bytes the field-by-field rendering
// writes, and each hit still reads the ledger.
func TestRepeatHitBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Ledger: l})
	body, key := storeHit(t, s, eblProblem(6100), `{"class":"ebl","q_conv_stag":1.5,"standoff":0.02}`, 12.5)
	want := oldHitReply(t, dir, key)
	for i := 0; i < 3; i++ {
		got := postRaw(t, ts.URL+"/api/runs", body)
		if got.status != want.status || got.etag != want.etag || got.ctype != want.ctype || !bytes.Equal(got.body, want.body) {
			t.Fatalf("hit %d: status %d, ETag %q, type %q, body\n%s\nwant %d, %q, %q,\n%s",
				i, got.status, got.etag, got.ctype, got.body, want.status, want.etag, want.ctype, want.body)
		}
	}
	if st := l.Stats(); st.Hits != 3 {
		t.Fatalf("ledger stats %+v, want a read per hit", st)
	}
}

// TestEntryRewrittenInPlaceIsSolvedAgain: after a warm hit, an entry file
// changed in one result byte — same size, mtime restored — is quarantined
// on the next submission, which solves again; the one after it hits with
// the solved result.
func TestEntryRewrittenInPlaceIsSolvedAgain(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Ledger: l})
	p := eblProblem(6150)
	_, solved := postCase(t, ts.URL+"/api/runs?wait=1", p, nil)
	if solved.Cached || solved.Error != "" || len(solved.Result) == 0 {
		t.Fatalf("first submission: %+v", solved)
	}
	if _, warm := postCase(t, ts.URL+"/api/runs?wait=1", p, nil); !warm.Cached {
		t.Fatalf("second submission missed: %+v", warm)
	}

	path := filepath.Join(dir, solved.Key[:2], solved.Key+".json")
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(`"q_conv_stag":`)) + len(`"q_conv_stag":`)
	if at < len(`"q_conv_stag":`) || data[at] < '0' || data[at] > '9' {
		t.Fatalf("no q_conv_stag digit in the stored entry: %.200s", data)
	}
	data[at] = '0' + (data[at]-'0'+1)%10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, info.ModTime(), info.ModTime()); err != nil {
		t.Fatal(err)
	}

	_, again := postCase(t, ts.URL+"/api/runs?wait=1", p, nil)
	if again.Cached || again.Error != "" || !bytes.Equal(again.Result, solved.Result) {
		t.Fatalf("submission after the rewrite: cached %v, error %q, result\n%s\nwant a fresh solve of\n%s",
			again.Cached, again.Error, again.Result, solved.Result)
	}
	if st := l.Stats(); st.Corrupt != 1 {
		t.Fatalf("ledger stats %+v, want the rewritten entry quarantined", st)
	}
	if _, hit := postCase(t, ts.URL+"/api/runs?wait=1", p, nil); !hit.Cached || !bytes.Equal(hit.Result, solved.Result) {
		t.Fatalf("submission after the re-solve: %+v", hit)
	}
}

// TestInvalidBodyAnsweredAlike: a body that fails to parse or validate gets
// the same 400 and message on every submission — the decoder's error or
// Prepare's — and is never remembered.
func TestInvalidBodyAnsweredAlike(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, body := range []string{
		"",
		"{not json",
		`{"class":"ebl","p_inf":4.8`,
		`{"class":"ebl"}`,
		`{"class":"ns","p_inf":100,"t_inf":250,"v_inf":2000,"nose_radius":0.3,"flux":"bogus"}`,
		`{"class":"ns","p_inf":5474.9,"t_inf":216.65,"v_inf":1770.4,` +
			`"body":{"kind":"sphere-cone","nose_radius":0.3,"half_angle_deg":7,"base_radius":0.6}}`,
	} {
		var p cataero.Problem
		want := ""
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&p); err != nil {
			want = "parse case: " + err.Error()
		} else if _, err := Prepare(s.cfg.Session, p); err != nil {
			want = err.Error()
		} else {
			t.Fatalf("body %q is valid", body)
		}
		for i := 0; i < 3; i++ {
			got := postRaw(t, ts.URL+"/api/runs", []byte(body))
			var e errorBody
			if err := json.Unmarshal(got.body, &e); err != nil || got.status != http.StatusBadRequest || e.Error != want {
				t.Fatalf("body %q, submission %d: status %d, %s; want 400 with %q", body, i, got.status, got.body, want)
			}
		}
	}
	s.mu.Lock()
	remembered := len(s.bodies)
	s.mu.Unlock()
	if remembered != 0 {
		t.Fatalf("%d invalid bodies remembered", remembered)
	}
}

// TestKeyStateBounded: past ledger.MemoKeys cases, the server remembers
// exactly that many bodies and keys, and every case still hits with its
// own result.
func TestKeyStateBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	n := ledger.MemoKeys + 8
	bodies := make([][]byte, n)
	results := make([]string, n)
	for i := range bodies {
		results[i] = fmt.Sprintf(`{"class":"ebl","q_conv_stag":%d}`, i)
		bodies[i], _ = storeHit(t, s, eblProblem(5000+float64(i)), results[i], 12.5)
	}
	check := func(i int) {
		t.Helper()
		got := postRaw(t, ts.URL+"/api/runs", bodies[i])
		var v runView
		if err := json.Unmarshal(got.body, &v); err != nil || got.status != http.StatusOK || !v.Cached {
			t.Fatalf("case %d: status %d, %.200s", i, got.status, got.body)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, v.Result); err != nil || buf.String() != results[i] {
			t.Fatalf("case %d: result %s, want %s", i, v.Result, results[i])
		}
	}
	for i := range bodies {
		check(i)
	}
	for i := range bodies {
		check(i)
	}
	s.mu.Lock()
	keys, remembered := len(s.keys), len(s.bodies)
	s.mu.Unlock()
	if keys != ledger.MemoKeys || remembered != ledger.MemoKeys {
		t.Fatalf("server remembers %d keys and %d bodies, want the bound %d", keys, remembered, ledger.MemoKeys)
	}
}

// TestConcurrentHitsRacePut: hits on one key that race a Put of a new
// entry for it each answer wholly with the old entry or wholly with the new
// one, and the hits after the Put answer with the new one. The new entry
// has the old one's result, and so its ETag, as a re-solve of the case
// would: only its provenance differs.
func TestConcurrentHitsRacePut(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Ledger: l})
	p := eblProblem(6200)
	const result = `{"class":"ebl","q_conv_stag":1}`
	body, key := storeHit(t, s, p, result, 12.5)
	old := oldHitReply(t, dir, key)

	const workers, perWorker = 4, 40
	replies := make([][]rawReply, workers)
	started := make(chan struct{}) // closed at worker 0's first reply
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				resp, err := http.Post(ts.URL+"/api/runs", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				replies[w] = append(replies[w], rawReply{resp.StatusCode, resp.Header.Get("ETag"), resp.Header.Get("Content-Type"), data})
				if w == 0 && i == 0 {
					close(started)
				}
			}
		}(w)
	}
	<-started
	storeHit(t, s, p, result, 25)
	wg.Wait()
	fresh := oldHitReply(t, dir, key)
	if bytes.Equal(fresh.body, old.body) {
		t.Fatal("the new entry renders like the old one")
	}
	var olds, news int
	for w := range replies {
		for i, got := range replies[w] {
			switch {
			case got.etag == old.etag && bytes.Equal(got.body, old.body):
				olds++
			case got.etag == fresh.etag && bytes.Equal(got.body, fresh.body):
				news++
			default:
				t.Fatalf("worker %d hit %d: status %d, ETag %q, body\n%s\nis neither the old nor the new entry's", w, i, got.status, got.etag, got.body)
			}
		}
	}
	t.Logf("%d hits answered with the old entry, %d with the new", olds, news)
	if got := postRaw(t, ts.URL+"/api/runs", body); got.etag != fresh.etag || !bytes.Equal(got.body, fresh.body) {
		t.Fatalf("hit after the put: ETag %q, body\n%s\nwant the new entry's", got.etag, got.body)
	}
}
