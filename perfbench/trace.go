package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one traced interval: a name, its start and end as offsets from
// the trace origin, the span that caused it (-1 for a root) and the op it
// belongs to. Spans of one op share the op id.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one branch per boundary.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// op allocates a fresh op id (-1 on a nil tracer).
func (t *tracer) op() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// add records a span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin),
		Parent: parent, Op: op,
	})
	return len(t.spans) - 1
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		var iv [][2]time.Duration
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]time.Duration{a, b})
			}
		}
		slices.SortFunc(iv, func(x, y [2]time.Duration) int { return int(x[0] - y[0]) })
		covered := time.Duration(0)
		var cur [2]time.Duration
		for j, v := range iv {
			switch {
			case j == 0:
				cur = v
			case v[0] <= cur[1]:
				cur[1] = max(cur[1], v[1])
			default:
				covered += cur[1] - cur[0]
				cur = v
			}
		}
		if len(iv) > 0 {
			covered += cur[1] - cur[0]
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfMS collects the self times, in ms, of every span with the given name.
func selfMS(spans []span, self []time.Duration, name string) []float64 {
	var out []float64
	for i, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
