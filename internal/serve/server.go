// Package serve is the HTTP/JSON front end of the toolkit: an aerothermal
// solve service over cataero.Session with a persistent, content-addressed
// run ledger. Millions of reentry-heating queries cluster around a few
// thousand flight conditions; the ledger turns that repeat traffic into
// disk hits, and admission control (priority lanes in the session's queue,
// per-client quotas) keeps the solver farm responsive under mixed
// interactive/bulk load.
//
// # Endpoints
//
//	GET  /healthz                 liveness (also reports ledger stats)
//	POST /api/runs                submit one case file; ?wait=1 blocks for the
//	                              result. Ledger hits return immediately with
//	                              "cached": true; misses return 202 + run ID
//	                              (in-flight duplicates coalesce onto one run).
//	GET  /api/runs                list known runs, newest first
//	GET  /api/runs/{id}           run status: snapshot, and result when done
//	GET  /api/runs/{id}/events    SSE progress stream (snapshot events, then
//	                              one done event); plain GET is the polling
//	                              fallback
//	DELETE /api/runs/{id}         cancel a queued or running solve
//	POST /api/batch               submit an array of case files (the HTTP form
//	                              of Session.SubmitAll); per-case hit/miss
//	GET  /api/ledger              list ledger entries
//	GET  /api/ledger/{key}        fetch one ledger entry
//
// Requests authenticate a client (for quota accounting only) with the
// X-API-Key header, and pick an admission lane with X-Priority: low,
// normal (default) or high. X-Deadline-Ms bounds how long one submission
// takes, its wait in the session queue included: a run still queued or
// solving at the deadline is cancelled, and a solving one is checkpointed
// first. Cached submissions carry an ETag (the result checksum);
// If-None-Match returns 304 without re-reading the artifact.
//
// A repeat hit repeats only the ledger's file read: the server remembers
// which case key each valid request body (by SHA-256) keyed to, and the hit
// body it rendered from each entry the ledger returned, and the ledger
// skips decoding bytes that already verified (ledger.Ledger.Get). Each memo
// is keyed on its whole input, so a changed body is parsed and validated
// again, and a changed entry file is verified and rendered again.
//
// # Fault tolerance
//
// With a ledger, every solve resumes from a valid checkpoint stored under
// its case key, and with a checkpoint cadence configured, in-flight solves
// periodically persist one (see Job). Drain (SIGTERM in `catsim serve`)
// rejects new admissions with 503 + Retry-After, checkpoints and cancels
// in-flight runs, and Recover on the next start re-submits interrupted runs
// from their checkpoints, so a restarted server continues long solves
// instead of repeating them.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cataero"
	"cataero/internal/ledger"
)

// Config assembles a Server.
type Config struct {
	// Session executes the solves. Required. Its admission queue is the
	// server's: WithWorkers bounds how many solves run at once, waiting runs
	// are admitted by X-Priority lane, and an X-Deadline-Ms deadline counts
	// the wait.
	Session *cataero.Session
	// Ledger is the persistent run store; nil serves without caching.
	Ledger *ledger.Ledger
	// QuotaRate is the per-client solve-admission rate in requests/second;
	// <= 0 disables quotas.
	QuotaRate float64
	// QuotaBurst is the token-bucket depth (default 1 when limiting).
	QuotaBurst int
	// CheckpointEvery, when positive (and a Ledger is configured), makes
	// every executed solve persist a resumable checkpoint to the ledger
	// every CheckpointEvery steps. A case spec's own checkpoint_every takes
	// precedence over this default. Resuming needs no cadence: with a
	// Ledger, every solve resumes from a valid checkpoint already stored
	// under its case key.
	CheckpointEvery int
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// maxBodyBytes bounds a request body; case specs are small.
const maxBodyBytes = 1 << 20

// maxBatchCases bounds one batch submission.
const maxBatchCases = 256

// maxRetainedRuns bounds the in-memory run registry; the oldest finished
// runs are evicted beyond it (their results live on in the ledger).
const maxRetainedRuns = 4096

// Server is the solve service. Create with New, expose via Handler, stop
// with Close.
type Server struct {
	cfg Config
	quo *quotas
	mux *http.ServeMux

	ctx    context.Context // lifetime of background solves
	cancel context.CancelFunc

	// draining rejects new admissions (503 + Retry-After) while the server
	// checkpoints and stops its in-flight runs (see Drain).
	draining atomic.Bool

	mu     sync.Mutex
	runs   map[string]*srvRun // by ID
	byKey  map[string]*srvRun // in-flight only: coalesces duplicate submissions
	order  []*srvRun          // submission order, for listing and eviction
	nextID uint64
	// keys and bodies hold at most ledger.MemoKeys entries each (putBounded).
	keys   map[string]keyState          // by case key
	bodies map[[sha256.Size]byte]string // request-body digest -> case key
}

// keyState is what the server remembers about one case key: the ETag of
// its latest result (for If-None-Match), and the 200 body of a cached
// submission rendered from the ledger entry it came from.
type keyState struct {
	etag  string
	entry *ledger.Entry // the entry hit was rendered from; nil before a hit
	hit   []byte
}

// srvRun is one submitted solve tracked by the server. Its session run is
// set before the srvRun is published; result, finalSnap and err are
// published by closing done, and the session run is dropped right after:
// a finished run is answered from result and finalSnap alone, so a retained
// run does not keep its solver state alive.
type srvRun struct {
	Job
	id      string
	created time.Time
	cancel  context.CancelFunc
	run     atomic.Pointer[cataero.Run] // nil once done has closed
	done    chan struct{}

	result    json.RawMessage
	finalSnap cataero.Snapshot
	err       error
}

// New builds a Server and starts nothing: each solve is submitted to the
// session on demand.
func New(cfg Config) (*Server, error) {
	if cfg.Session == nil {
		return nil, errors.New("serve: Config.Session is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		quo:    newQuotas(cfg.QuotaRate, cfg.QuotaBurst),
		mux:    http.NewServeMux(),
		ctx:    ctx,
		cancel: cancel,
		runs:   make(map[string]*srvRun),
		byKey:  make(map[string]*srvRun),
		keys:   make(map[string]keyState),
		bodies: make(map[[sha256.Size]byte]string),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /api/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /api/runs/{id}", s.handleRunStatus)
	s.mux.HandleFunc("GET /api/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("DELETE /api/runs/{id}", s.handleRunCancel)
	s.mux.HandleFunc("POST /api/batch", s.handleBatch)
	s.mux.HandleFunc("GET /api/ledger", s.handleLedgerList)
	s.mux.HandleFunc("GET /api/ledger/{key}", s.handleLedgerGet)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight solve and stops accepting work's effects;
// the HTTP listener (owned by the caller) should be shut down first.
func (s *Server) Close() { s.cancel() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// --- responses ---

// runView is the wire form of a run: submission metadata, the live
// snapshot, and the result artifact once available. A ledger hit is a
// synthetic view with Cached set and no ID (nothing to poll).
type runView struct {
	ID       string `json:"id,omitempty"`
	Key      string `json:"key"`
	Name     string `json:"name,omitempty"`
	Priority string `json:"priority,omitempty"`
	State    string `json:"state"`
	Cached   bool   `json:"cached"`
	// Coalesced marks a submission that attached to an identical case
	// already in flight instead of starting a new solve.
	Coalesced bool            `json:"coalesced,omitempty"`
	Created   time.Time       `json:"created,omitzero"`
	Snapshot  json.RawMessage `json:"snapshot,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Error     string          `json:"error,omitempty"`
	// SolvedInMS is the wall clock of the solve that produced the result —
	// for a cached response, the original solve this hit avoided.
	SolvedInMS float64 `json:"solved_in_ms,omitempty"`
	Solver     string  `json:"solver,omitempty"`
	Version    string  `json:"version,omitempty"`
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	writeBody(w, code, renderJSON(v))
}

// renderJSON is the indented JSON of v (empty when v does not marshal).
func renderJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// writeBody writes a rendered JSON response. A failed write is the client's
// loss alone.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok", "version": cataero.Version}
	if s.cfg.Ledger != nil {
		resp["ledger"] = s.cfg.Ledger.Stats()
	}
	writeJSON(w, http.StatusOK, resp)
}

// putBounded stores v under k, first dropping an arbitrary other entry when
// m already holds ledger.MemoKeys of them.
func putBounded[K comparable, V any](m map[K]V, k K, v V) {
	if _, ok := m[k]; !ok && len(m) >= ledger.MemoKeys {
		for old := range m {
			delete(m, old)
			break
		}
	}
	m[k] = v
}

// lookupLedger returns the key's valid ledger entry, if any, and records
// its checksum as the key's ETag.
func (s *Server) lookupLedger(key string) *ledger.Entry {
	if s.cfg.Ledger == nil {
		return nil
	}
	e, err := s.cfg.Ledger.Get(key)
	if err != nil || e == nil {
		return nil
	}
	s.setEtag(key, e.Checksum)
	return e
}

// cachedView is the wire form of a ledger hit.
func cachedView(e *ledger.Entry) runView {
	return runView{
		Key:        e.Key,
		State:      cataero.RunDone.String(),
		Cached:     true,
		Snapshot:   e.Snapshot,
		Result:     e.Result,
		SolvedInMS: e.ElapsedMS,
		Solver:     e.Solver,
		Version:    e.Version,
	}
}

// writeHit answers a submission from the key's ledger entry e. The body is
// rendered once per entry: Get returns the same *Entry for as long as the
// entry file's bytes are unchanged, and a new one otherwise.
func (s *Server) writeHit(w http.ResponseWriter, key string, e *ledger.Entry) {
	s.mu.Lock()
	st := s.keys[key]
	s.mu.Unlock()
	body := st.hit
	if st.entry != e {
		body = renderJSON(cachedView(e))
		s.mu.Lock()
		putBounded(s.keys, key, keyState{etag: e.Checksum, entry: e, hit: body})
		s.mu.Unlock()
	}
	w.Header().Set("ETag", `"`+e.Checksum+`"`)
	writeBody(w, http.StatusOK, body)
}

// setEtag records the result checksum serving as a key's ETag. A new
// checksum drops the key's rendered hit, which was of an older entry.
func (s *Server) setEtag(key, sum string) {
	if sum == "" {
		return
	}
	s.mu.Lock()
	if st := s.keys[key]; st.etag != sum {
		putBounded(s.keys, key, keyState{etag: sum})
	}
	s.mu.Unlock()
}

// etagFor returns the cached ETag for a key ("" when unknown).
func (s *Server) etagFor(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.keys[key].etag
}

// etagMatches reports whether an If-None-Match header value matches the
// tag: the wildcard, or any member of the comma-separated list (quotes and
// weak-validator prefixes ignored — the checksum identifies the bytes).
func etagMatches(header, tag string) bool {
	if header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		part = strings.Trim(part, `"`)
		if part == tag {
			return true
		}
	}
	return false
}

// notModified answers a conditional request from the ETag cache alone —
// no ledger read — when the client already holds the current result.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, key string) bool {
	inm := r.Header.Get("If-None-Match")
	if inm == "" {
		return false
	}
	tag := s.etagFor(key)
	if tag == "" || !etagMatches(inm, tag) {
		return false
	}
	w.Header().Set("ETag", `"`+tag+`"`)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// rejectDraining answers a submission with 503 + Retry-After while the
// server is shutting down.
func (s *Server) rejectDraining(w http.ResponseWriter) bool {
	if !s.draining.Load() {
		return false
	}
	w.Header().Set("Retry-After", "10")
	writeError(w, http.StatusServiceUnavailable, "server is draining; retry shortly")
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	lane, err := parsePriority(r.Header.Get("X-Priority"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	deadline, err := parseDeadline(r.Header.Get("X-Deadline-Ms"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse case: %v", err)
		return
	}
	// A body this server has keyed before keys the same way again: parsing,
	// validation and keying depend on its bytes alone (the lane is not part
	// of the key). Only a body that keyed is remembered.
	sum := sha256.Sum256(body)
	s.mu.Lock()
	key := s.bodies[sum]
	s.mu.Unlock()
	var job Job
	if key == "" {
		if job, err = s.prepareBody(body, lane); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key = job.Key
		s.mu.Lock()
		putBounded(s.bodies, sum, key)
		s.mu.Unlock()
	}

	if s.notModified(w, r, key) {
		return
	}
	if e := s.lookupLedger(key); e != nil {
		s.writeHit(w, key, e)
		return
	}
	if job.Key == "" {
		if job, err = s.prepareBody(body, lane); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	sr, coalesced, retryAfter := s.admit(job, deadline, clientKey(r))
	if sr == nil {
		retryAfterError(w, retryAfter)
		return
	}
	s.respondRun(w, r, sr, coalesced)
}

// prepareBody decodes a submission body into a case in the given lane and
// keys it (Prepare).
func (s *Server) prepareBody(body []byte, lane cataero.Priority) (Job, error) {
	var p cataero.Problem
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return Job{}, fmt.Errorf("parse case: %w", err)
	}
	p.Priority = lane
	return Prepare(s.cfg.Session, p)
}

// parseDeadline parses the X-Deadline-Ms header ("" = no deadline). A
// count of milliseconds too large for a time.Duration is rejected rather
// than left to overflow into a negative (no) or tiny deadline.
func parseDeadline(h string) (time.Duration, error) {
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 || ms > math.MaxInt64/int64(time.Millisecond) {
		return 0, fmt.Errorf("X-Deadline-Ms %q: want a positive integer of milliseconds", h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// clientKey identifies the quota account of a request.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	return "anonymous"
}

func retryAfterError(w http.ResponseWriter, retryAfter time.Duration) {
	secs := int(retryAfter/time.Second) + 1
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	writeError(w, http.StatusTooManyRequests,
		"quota exhausted; retry in %ds", secs)
}

// admit registers a new run for the job and submits it to the session —
// or coalesces onto an identical in-flight one — charging the client's quota
// only for genuinely new solves. A nil run means the quota rejected the
// submission. The empty client is the server itself (restart recovery) and
// is never quota-charged. A positive deadline (X-Deadline-Ms) bounds the
// whole submission, its wait in the session queue included. With a ledger,
// the solve resumes from a checkpoint stored under its case key and
// persists new ones at the configured cadence (Job.Resumable).
func (s *Server) admit(job Job, deadline time.Duration, client string) (sr *srvRun, coalesced bool, retryAfter time.Duration) {
	s.mu.Lock()
	existing := s.byKey[job.Key]
	s.mu.Unlock()
	if existing != nil {
		return existing, true, 0
	}
	// The ledger wiring reads the disk and logs, so it runs unlocked; the
	// check below catches an identical case admitted meanwhile.
	p := job.Problem
	if s.cfg.Ledger != nil {
		p = job.Resumable(s.cfg.Ledger, s.cfg.CheckpointEvery, s.logf)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing := s.byKey[job.Key]; existing != nil {
		return existing, true, 0
	}
	if client != "" {
		if ok, wait := s.quo.take(client, time.Now()); !ok {
			return nil, false, wait
		}
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(s.ctx, deadline)
	} else {
		ctx, cancel = context.WithCancel(s.ctx)
	}
	s.nextID++
	sr = &srvRun{
		Job:     job,
		id:      fmt.Sprintf("r%06d", s.nextID),
		created: time.Now().UTC(),
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	sr.run.Store(s.cfg.Session.Submit(ctx, p))
	s.runs[sr.id] = sr
	s.byKey[job.Key] = sr
	s.order = append(s.order, sr)
	s.evictLocked()
	go s.execute(sr)
	return sr, false, 0
}

// evictLocked drops the oldest finished runs beyond the retention bound.
func (s *Server) evictLocked() {
	if len(s.order) <= maxRetainedRuns {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - maxRetainedRuns
	for _, sr := range s.order {
		finished := false
		select {
		case <-sr.done:
			finished = true
		default:
		}
		if excess > 0 && finished {
			delete(s.runs, sr.id)
			excess--
			continue
		}
		kept = append(kept, sr)
	}
	s.order = kept
}

// execute waits for one submitted solve and files its outcome: the result
// is written back to the ledger, where it supersedes the key's checkpoint,
// and then published with the run. Once published, the session run — and
// with it the solver state its Environment holds — is let go.
func (s *Server) execute(sr *srvRun) {
	run := sr.run.Load()
	defer sr.run.Store(nil)
	defer close(sr.done)
	defer sr.cancel()
	env, err := run.Wait()
	sr.finalSnap = run.Snapshot()
	if err != nil {
		sr.err = err
		s.unkey(sr)
		return
	}
	result, err := json.Marshal(env)
	if err != nil {
		sr.err = fmt.Errorf("marshal result: %w", err)
		s.unkey(sr)
		return
	}
	sr.result = result

	if s.cfg.Ledger != nil {
		if err := sr.Store(s.cfg.Ledger, result, sr.finalSnap); err != nil {
			// A failing ledger (full or read-only disk) degrades the server
			// to cache-less operation; the solve itself still succeeded.
			s.logf("serve: ledger put %s: %v", sr.Key, err)
		} else {
			s.setEtag(sr.Key, ledger.Checksum(result))
		}
	}
	// Unkey only after the ledger write: a submission arriving in between
	// either coalesces onto this run or hits the fresh entry — never both
	// misses into a duplicate solve.
	s.unkey(sr)
}

// unkey removes a finished run from the in-flight coalescing index.
func (s *Server) unkey(sr *srvRun) {
	s.mu.Lock()
	if s.byKey[sr.Key] == sr {
		delete(s.byKey, sr.Key)
	}
	s.mu.Unlock()
}

// respondRun answers a submission: synchronously when ?wait is set,
// otherwise 202 with the ID to poll.
func (s *Server) respondRun(w http.ResponseWriter, r *http.Request, sr *srvRun, coalesced bool) {
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-sr.done:
			v := s.view(sr)
			v.Coalesced = coalesced
			code := http.StatusOK
			if v.Error != "" {
				code = http.StatusInternalServerError
			}
			writeJSON(w, code, v)
		case <-r.Context().Done():
			// Client went away; the solve continues for the ledger.
		}
		return
	}
	v := s.view(sr)
	v.Coalesced = coalesced
	writeJSON(w, http.StatusAccepted, v)
}

// view assembles the wire form of a run from its published lifecycle state.
func (s *Server) view(sr *srvRun) runView {
	v := runView{
		ID:       sr.id,
		Key:      sr.Key,
		Name:     sr.Problem.Name,
		Priority: sr.Problem.Priority.String(),
		Created:  sr.created,
	}
	run := sr.live()
	if run == nil {
		v.State = cataero.RunDone.String()
		if snap, err := json.Marshal(sr.finalSnap); err == nil {
			v.Snapshot = snap
		}
		v.SolvedInMS = float64(sr.finalSnap.Elapsed) / float64(time.Millisecond)
		v.Solver = sr.finalSnap.Solver
		v.Result = sr.result
		if sr.err != nil {
			v.Error = sr.err.Error()
		}
		return v
	}
	snap := run.Snapshot()
	// The session run finishes before execute has stored the result
	// (marshalling, the ledger write) and closed sr.done: until then the run
	// is still running here, so done always comes with its result or error.
	if snap.State == cataero.RunDone {
		snap.State, snap.Err = cataero.RunRunning, nil
	}
	v.State = snap.State.String()
	if data, err := json.Marshal(snap); err == nil {
		v.Snapshot = data
	}
	return v
}

// live returns the run's session handle while the run is unfinished, and
// nil once done has closed, when result, finalSnap and err are published.
func (sr *srvRun) live() *cataero.Run {
	run := sr.run.Load()
	if run == nil {
		return nil // execute drops the handle only after closing done
	}
	select {
	case <-sr.done:
		return nil
	default:
		return run
	}
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*srvRun, len(s.order))
	copy(runs, s.order)
	s.mu.Unlock()
	views := make([]runView, 0, len(runs))
	for _, sr := range runs {
		views = append(views, s.view(sr))
	}
	sort.SliceStable(views, func(i, j int) bool { return views[i].Created.After(views[j].Created) })
	if len(views) > 100 {
		views = views[:100]
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) runByID(w http.ResponseWriter, r *http.Request) *srvRun {
	s.mu.Lock()
	sr := s.runs[r.PathValue("id")]
	s.mu.Unlock()
	if sr == nil {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
	}
	return sr
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	if sr := s.runByID(w, r); sr != nil {
		writeJSON(w, http.StatusOK, s.view(sr))
	}
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	sr := s.runByID(w, r)
	if sr == nil {
		return
	}
	sr.cancel()
	writeJSON(w, http.StatusOK, s.view(sr))
}

// handleRunEvents streams run progress as Server-Sent Events: one
// "snapshot" event per observed progress change and a final "done" event
// carrying the full run view (result included). GET /api/runs/{id} is the
// polling fallback for clients without SSE.
func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	sr := s.runByID(w, r)
	if sr == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	emit := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	// A finished run streams what a Watch of it yields, its terminal
	// snapshot, and then done.
	run := sr.live()
	if run == nil {
		if emit("snapshot", sr.finalSnap) {
			emit("done", s.view(sr))
		}
		return
	}
	// Latest-value snapshots until the watch channel closes at the terminal
	// one. A run waiting in the session queue sends nothing until it starts,
	// so the stream opens with its queued state.
	watch := run.Watch()
	if snap := run.Snapshot(); snap.State == cataero.RunQueued && !emit("snapshot", snap) {
		return
	}
	for {
		select {
		case snap, ok := <-watch:
			if ok {
				if !emit("snapshot", snap) {
					return
				}
				continue
			}
			select {
			case <-sr.done:
				emit("done", s.view(sr))
			case <-r.Context().Done():
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

// handleBatch submits an array of case specs — the HTTP form of
// Session.SubmitAll: every case is attempted, hits come back inline, and
// per-case failures never abort the batch. ?wait=1 blocks for all results.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	lane, err := parsePriority(r.Header.Get("X-Priority"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var problems []cataero.Problem
	if err := json.NewDecoder(body).Decode(&problems); err != nil {
		writeError(w, http.StatusBadRequest, "parse batch: %v", err)
		return
	}
	if len(problems) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(problems) > maxBatchCases {
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d cases exceeds the %d-case bound", len(problems), maxBatchCases)
		return
	}

	client := clientKey(r)
	views := make([]runView, len(problems))
	var waits []*srvRun
	waitIdx := make(map[*srvRun][]int)
	for i, p := range problems {
		p.Priority = lane
		job, err := Prepare(s.cfg.Session, p)
		if err != nil {
			views[i] = runView{State: cataero.RunDone.String(), Error: err.Error()}
			continue
		}
		if e := s.lookupLedger(job.Key); e != nil {
			views[i] = cachedView(e)
			continue
		}
		sr, coalesced, retryAfter := s.admit(job, 0, client)
		if sr == nil {
			secs := int(retryAfter/time.Second) + 1
			views[i] = runView{
				Key:   job.Key,
				State: cataero.RunDone.String(),
				Error: fmt.Sprintf("quota exhausted; retry in %ds", secs),
			}
			continue
		}
		v := s.view(sr)
		v.Coalesced = coalesced
		views[i] = v
		if _, seen := waitIdx[sr]; !seen {
			waits = append(waits, sr)
		}
		waitIdx[sr] = append(waitIdx[sr], i)
	}

	if r.URL.Query().Get("wait") != "" {
		for _, sr := range waits {
			select {
			case <-sr.done:
			case <-r.Context().Done():
				return
			}
			for _, i := range waitIdx[sr] {
				coalesced := views[i].Coalesced
				views[i] = s.view(sr)
				views[i].Coalesced = coalesced
			}
		}
	}
	writeJSON(w, http.StatusOK, views)
}

func (s *Server) handleLedgerList(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "no ledger configured")
		return
	}
	entries, err := s.cfg.Ledger.Entries()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	type entryMeta struct {
		Key       string    `json:"key"`
		Solver    string    `json:"solver,omitempty"`
		Version   string    `json:"version,omitempty"`
		Created   time.Time `json:"created"`
		ElapsedMS float64   `json:"elapsed_ms,omitempty"`
	}
	metas := make([]entryMeta, 0, len(entries))
	for _, e := range entries {
		metas = append(metas, entryMeta{
			Key: e.Key, Solver: e.Solver, Version: e.Version,
			Created: e.Created, ElapsedMS: e.ElapsedMS,
		})
	}
	writeJSON(w, http.StatusOK, metas)
}

func (s *Server) handleLedgerGet(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Ledger == nil {
		writeError(w, http.StatusNotFound, "no ledger configured")
		return
	}
	key := strings.ToLower(r.PathValue("key"))
	if s.notModified(w, r, key) {
		return
	}
	e, err := s.cfg.Ledger.Get(key)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if e == nil {
		writeError(w, http.StatusNotFound, "no entry for %s", key)
		return
	}
	s.setEtag(key, e.Checksum)
	w.Header().Set("ETag", `"`+e.Checksum+`"`)
	writeJSON(w, http.StatusOK, e)
}
