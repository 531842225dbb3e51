package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"cataero"
	"cataero/internal/ledger"
	"cataero/internal/serve"
)

// The serve traffic's shape. The campaign period is about 4× the time of
// one miss under the interactive load, so misses never overlap.
const (
	campaignPeriod  = 280 * time.Millisecond // one never-seen case per period
	revalidateShare = 0.1                    // interactive requests with If-None-Match
	zipfS           = 1.1                    // popularity skew of the interactive draws
)

// Stored cases: the serve workload's, and those of the short serve traffic
// a sweep's traced run probes the service layers with.
const (
	prefillFull = 48
	prefillMini = 6
)

// serveKind is the case class every served request belongs to: the smoke
// case at a per-request wall temperature.
var serveKind = &idealKinds[0]

// prefillWall is the wall temperature of stored case i; fresh campaign
// cases draw theirs from the seed (freshWalls), never on this grid.
func prefillWall(i int) float64 { return 594 + 0.25*float64(i) }

// freshWalls returns n distinct seeded wall temperatures, none equal to a
// stored case's.
func freshWalls(seed uint64, n, prefill int) []float64 {
	rng := newRand(seed, 3)
	stored := map[float64]bool{}
	for i := 0; i < prefill; i++ {
		stored[prefillWall(i)] = true
	}
	seen := map[float64]bool{}
	var out []float64
	for len(out) < n {
		tw := serveKind.twall * (1 + wallJitter*(2*rng.Float64()-1))
		if stored[tw] || seen[tw] {
			continue
		}
		seen[tw] = true
		out = append(out, tw)
	}
	return out
}

// hitDraw is one interactive request: which stored case, and whether it
// revalidates with If-None-Match.
type hitDraw struct {
	idx int
	inm bool
}

// hitStream draws interactive requests: Zipf-skewed popularity over the
// stored cases (ranks mapped to cases by a seeded permutation).
type hitStream struct {
	zipf *rand.Zipf
	perm []int
	rng  *rand.Rand
}

func newHitStream(seed uint64, prefill int) *hitStream {
	rng := newRand(seed, 2)
	return &hitStream{
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(prefill-1)),
		perm: rng.Perm(prefill),
		rng:  rng,
	}
}

func (h *hitStream) next() hitDraw {
	return hitDraw{idx: h.perm[h.zipf.Uint64()], inm: h.rng.Float64() < revalidateShare}
}

// serveEnv is one set-up service: a fresh ledger with checkpointing on, a
// session and serve.Server behind a real loopback listener, and the stored
// cases.
type serveEnv struct {
	sess   *cataero.Session
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	probe  *ledger.Ledger // second handle on the ledger, for probes

	bodies [][]byte
	probs  []cataero.Problem
	keys   []string
	etags  []string
}

// startServe sets the service up in dir and prefills `prefill` cases
// through the API, two at a time, then revalidates each once to learn its
// ETag. Prefill ops are checked like campaign misses.
func startServe(ctx context.Context, dir string, prefill int, t *tally) (*serveEnv, error) {
	led, err := ledger.Open(dir)
	if err != nil {
		return nil, err
	}
	sess := cataero.NewSession()
	srv, err := serve.New(serve.Config{Session: sess, Ledger: led, CheckpointEvery: 100})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	e := &serveEnv{
		sess: sess, srv: srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if e.probe, err = ledger.Open(dir); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < prefill; i++ {
		p := serveKind.problem(prefillWall(i))
		body, key, err := e.encode(p)
		if err != nil {
			e.close()
			return nil, err
		}
		e.probs = append(e.probs, p)
		e.bodies = append(e.bodies, body)
		e.keys = append(e.keys, key)
	}
	e.etags = make([]string, prefill)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= prefill {
					return
				}
				m := e.miss(ctx, c, e.bodies[i])
				mu.Lock()
				t.add(m.err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c := newClient()
	defer c.CloseIdleConnections()
	for i := range e.bodies {
		h := e.hit(ctx, c, hitDraw{idx: i})
		t.add(h.err)
	}
	return e, nil
}

// encode returns a problem's request body and its ledger key as the
// service computes it.
func (e *serveEnv) encode(p cataero.Problem) ([]byte, string, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return nil, "", err
	}
	np, err := e.sess.Normalize(p)
	if err != nil {
		return nil, "", err
	}
	key, err := cataero.CaseKey(np)
	return body, key, err
}

// close stops the listener, the server's background solves, and waits for
// Serve to return.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // a timeout leaves only idle loopback connections
	e.srv.Close()
	<-e.served
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
			DisableCompression: true,
		},
	}
}

// reply is one HTTP exchange: timing, status and body.
type reply struct {
	sent, done time.Time
	status     int
	etag       string
	body       []byte
	err        error
}

func (e *serveEnv) post(ctx context.Context, c *http.Client, path string, body []byte, inm string) reply {
	r := reply{sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.base+path, bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if inm != "" {
		req.Header.Set("If-None-Match", `"`+inm+`"`)
	}
	resp, err := c.Do(req)
	if err != nil {
		r.err, r.done = err, time.Now()
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	r.status = resp.StatusCode
	r.etag = strings.Trim(resp.Header.Get("ETag"), `"`)
	return r
}

// runView is the part of the service's run JSON the checks read.
type runView struct {
	Cached     bool            `json:"cached"`
	Coalesced  bool            `json:"coalesced"`
	Result     json.RawMessage `json:"result"`
	Error      string          `json:"error"`
	SolvedInMS float64         `json:"solved_in_ms"`
	Snapshot   struct {
		Phase     string `json:"phase"`
		Step      int    `json:"step"`
		MaxSteps  int    `json:"max_steps"`
		Fallbacks int    `json:"fallbacks"`
		Refits    int    `json:"refits"`
	} `json:"snapshot"`
}

// hitResult is one checked interactive request.
type hitResult struct {
	reply
	err error
}

// hit sends one interactive request for stored case d.idx. A plain hit must
// come back cached with a result whose SHA-256 equals the ETag; a
// revalidation (If-None-Match with the known ETag) must come back 304.
func (e *serveEnv) hit(ctx context.Context, c *http.Client, d hitDraw) hitResult {
	inm := ""
	if d.inm {
		inm = e.etags[d.idx]
	}
	h := hitResult{reply: e.post(ctx, c, "/api/runs", e.bodies[d.idx], inm)}
	h.err = checkHit(h.reply, d.inm, e.etags[d.idx])
	if h.err == nil && !d.inm {
		e.etags[d.idx] = h.etag
	}
	return h
}

var errNotCached = errors.New("stored case not served from the ledger")

// checkHit checks an interactive reply; want is the ETag the client holds
// ("" before the first hit of the case).
func checkHit(r reply, revalidate bool, want string) error {
	if r.err != nil {
		return r.err
	}
	if revalidate {
		if r.status != http.StatusNotModified || r.etag != want {
			return fmt.Errorf("revalidation: status %d, ETag %q, want 304 with %q", r.status, r.etag, want)
		}
		return nil
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("hit: status %d: %s", r.status, r.body)
	}
	var v runView
	if err := json.Unmarshal(r.body, &v); err != nil {
		return fmt.Errorf("hit: decode: %w", err)
	}
	if !v.Cached {
		return errNotCached
	}
	if got := resultSum(v.Result); got != r.etag || (want != "" && got != want) {
		return fmt.Errorf("hit: result SHA-256 %s does not match ETag %q (held %q)", got, r.etag, want)
	}
	return nil
}

// resultSum is the SHA-256 of a result artifact in the compact form the
// ledger stores (the service indents its responses).
func resultSum(raw json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return ""
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// missResult is one checked campaign (or prefill) request.
type missResult struct {
	reply
	view runView
	err  error
}

// miss submits a never-seen case with ?wait=1 and checks the answer like a
// sweep op: solved (not cached), converged before the step cap, outputs
// within the band of the smoke case's references.
func (e *serveEnv) miss(ctx context.Context, c *http.Client, body []byte) missResult {
	m := missResult{reply: e.post(ctx, c, "/api/runs?wait=1", body, "")}
	m.err = checkMiss(&m)
	return m
}

func checkMiss(m *missResult) error {
	if m.reply.err != nil {
		return m.reply.err
	}
	if m.status != http.StatusOK {
		return fmt.Errorf("miss: status %d: %s", m.status, m.body)
	}
	if err := json.Unmarshal(m.body, &m.view); err != nil {
		return fmt.Errorf("miss: decode: %w", err)
	}
	if m.view.Cached || m.view.Error != "" {
		return fmt.Errorf("miss: cached=%v error=%q", m.view.Cached, m.view.Error)
	}
	var env cataero.Environment
	if err := json.Unmarshal(m.view.Result, &env); err != nil {
		return fmt.Errorf("miss: decode result: %w", err)
	}
	snap := cataero.Snapshot{Phase: m.view.Snapshot.Phase, Step: m.view.Snapshot.Step, MaxSteps: m.view.Snapshot.MaxSteps}
	return checkOutputs(serveKind, envOutputs(serveKind, &env), &snap)
}

// serveTraffic is what one measuring window of serve traffic saw.
type serveTraffic struct {
	ops        tally
	elapsed    time.Duration
	hitMS      []float64
	revalMS    []float64
	missMS     []float64 // from the due time
	lateMS     []float64 // send time minus due time
	solvedMS   []float64
	overheadMS []float64 // miss round trip minus the solve
	missRuns   []runCounts
	refused    int
	coalesced  int
	casekeyUS  []float64
	getUS      []float64
}

func (s *serveTraffic) merge(o *serveTraffic) {
	s.ops.merge(o.ops)
	s.hitMS = append(s.hitMS, o.hitMS...)
	s.revalMS = append(s.revalMS, o.revalMS...)
	s.missMS = append(s.missMS, o.missMS...)
	s.lateMS = append(s.lateMS, o.lateMS...)
	s.solvedMS = append(s.solvedMS, o.solvedMS...)
	s.overheadMS = append(s.overheadMS, o.overheadMS...)
	s.missRuns = append(s.missRuns, o.missRuns...)
	s.refused += o.refused
	s.coalesced += o.coalesced
	s.casekeyUS = append(s.casekeyUS, o.casekeyUS...)
	s.getUS = append(s.getUS, o.getUS...)
}

// dueTimes is the campaign schedule: one request every period from start,
// for as long as the due time falls inside the window.
func dueTimes(start time.Time, period, window time.Duration) []time.Time {
	var out []time.Time
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if due.Sub(start) >= window {
			return out
		}
		out = append(out, due)
	}
}

// lateness is how long after its due time a request was sent (0 if on
// time).
func lateness(due, sent time.Time) time.Duration { return max(0, sent.Sub(due)) }

// probeEvery is how often a traced hit is followed by the core and ledger
// probes: often enough for steady medians, rarely enough that the probes
// barely slow the closed loop they sit in.
const probeEvery = 8

// measure runs one window of serve traffic: the interactive client
// (closed loop on one connection) and the campaign client (one fresh case
// per period on a second connection, each timed from its due time). fresh
// supplies the campaign's wall temperatures. With a tracer, every request
// becomes a span and every probeEvery-th plain hit is followed by the core
// and ledger probes on its body and key.
func (e *serveEnv) measure(ctx context.Context, hits *hitStream, fresh []float64, window time.Duration, tr *tracer) (*serveTraffic, error) {
	start := time.Now()
	deadline := start.Add(window)
	due := dueTimes(start, campaignPeriod, window)
	if len(due) > len(fresh) {
		return nil, fmt.Errorf("serve: %d campaign requests but %d fresh cases", len(due), len(fresh))
	}
	var inter, camp serveTraffic
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for time.Now().Before(deadline) && ctx.Err() == nil {
			d := hits.next()
			h := e.hit(ctx, c, d)
			inter.ops.add(h.err)
			if h.status == http.StatusTooManyRequests || h.status == http.StatusServiceUnavailable {
				inter.refused++
			}
			lat := ms(h.done.Sub(h.sent))
			op := tr.op()
			if d.inm {
				inter.revalMS = append(inter.revalMS, lat)
				tr.add("serve.revalidate", h.sent, h.done, -1, op)
				continue
			}
			inter.hitMS = append(inter.hitMS, lat)
			tr.add("serve.hit", h.sent, h.done, -1, op)
			if tr != nil && len(inter.hitMS)%probeEvery == 0 {
				inter.casekeyUS = append(inter.casekeyUS, e.probeCaseKey(tr, d.idx, op))
				inter.getUS = append(inter.getUS, e.probeGet(tr, d.idx, op))
			}
		}
	}()
	go func() {
		defer wg.Done()
		c := newClient()
		defer c.CloseIdleConnections()
		for k, dt := range due {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Until(dt)):
			}
			p := serveKind.problem(fresh[k])
			body, err := json.Marshal(p)
			if err != nil {
				camp.ops.add(err)
				continue
			}
			m := e.miss(ctx, c, body)
			camp.ops.add(m.err)
			camp.lateMS = append(camp.lateMS, ms(lateness(dt, m.sent)))
			switch m.status {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				camp.refused++
			}
			if m.view.Coalesced {
				camp.coalesced++
			}
			if m.err != nil {
				continue
			}
			camp.missMS = append(camp.missMS, ms(m.done.Sub(dt)))
			camp.solvedMS = append(camp.solvedMS, m.view.SolvedInMS)
			camp.overheadMS = append(camp.overheadMS, ms(m.done.Sub(m.sent))-m.view.SolvedInMS)
			if tr != nil {
				op := tr.op()
				tr.add("serve.miss", dt, m.done, -1, op)
				v := m.view.Snapshot
				camp.missRuns = append(camp.missRuns, runCounts{steps: v.Step, fallbacks: v.Fallbacks, refits: v.Refits})
			}
		}
	}()
	wg.Wait()
	inter.elapsed = time.Since(start)
	inter.merge(&camp)
	return &inter, ctx.Err()
}

// probeCaseKey times the core layer on stored case i: Session.Normalize,
// CanonicalJSON and CaseKey, as the service runs them per request body.
func (e *serveEnv) probeCaseKey(tr *tracer, i, op int) float64 {
	t0 := time.Now()
	np, err := e.sess.Normalize(e.probs[i])
	if err == nil {
		_, err = cataero.CanonicalJSON(np)
	}
	if err == nil {
		_, err = cataero.CaseKey(np)
	}
	t1 := time.Now()
	tr.add("core.casekey", t0, t1, -1, op)
	return float64(t1.Sub(t0)) / 1e3
}

// probeGet times a ledger Get of stored case i through a second handle (so
// the service's own hit counters stay the traffic's).
func (e *serveEnv) probeGet(tr *tracer, i, op int) float64 {
	t0 := time.Now()
	_, _ = e.probe.Get(e.keys[i]) // a failed probe read shows as a slow one
	t1 := time.Now()
	tr.add("ledger.get", t0, t1, -1, op)
	return float64(t1.Sub(t0)) / 1e3
}

// ledgerHitRatio reads the service's ledger counters from /healthz.
func (e *serveEnv) ledgerHitRatio(ctx context.Context) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Ledger ledger.Stats `json:"ledger"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, err
	}
	return ratio(float64(h.Ledger.Hits), float64(h.Ledger.Hits+h.Ledger.Misses)), nil
}

// serveRun is what one serve run measured.
type serveRun struct {
	setupS   []float64
	setupOps tally
	windows  []*serveTraffic // untraced, then traced when tracing
	hitRatio float64
}

// runServe sets the service up nSetups times (each over a fresh ledger
// under dir) and measures the last one: one window of `seconds`, or, with
// a tracer, an untraced and a traced window of half that each.
func runServe(ctx context.Context, dir string, prefill int, seed uint64, seconds float64, nSetups int, tr *tracer) (*serveRun, error) {
	out := &serveRun{}
	var env *serveEnv
	for i := 0; i < nSetups; i++ {
		if env != nil {
			env.close()
		}
		t0 := time.Now()
		var err error
		env, err = startServe(ctx, fmt.Sprintf("%s/ledger-%d", dir, i), prefill, &out.setupOps)
		if err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	defer env.close()
	windows := []*tracer{nil}
	if tr != nil {
		windows = []*tracer{nil, tr}
	}
	window := time.Duration(seconds / float64(len(windows)) * float64(time.Second))
	hits := newHitStream(seed, prefill)
	n := len(dueTimes(time.Now(), campaignPeriod, window)) + 1
	fresh := freshWalls(seed, n*len(windows), prefill)
	for w, wtr := range windows {
		t, err := env.measure(ctx, hits, fresh[w*n:(w+1)*n], window, wtr)
		if err != nil {
			return nil, err
		}
		out.windows = append(out.windows, t)
	}
	var err error
	out.hitRatio, err = env.ledgerHitRatio(ctx)
	return out, err
}
