package serve

import (
	"fmt"
	"math"
	"sync"
	"time"

	"cataero"
)

// Admission control for the serve layer, ahead of the session's queue:
//
//   - priority lanes (X-Priority): a request's lane becomes its problem's
//     Priority, and the session queue hands each freed solve slot to the
//     oldest waiter in the highest non-empty lane — interactive traffic
//     overtakes bulk campaigns without preempting running solves;
//   - per-client quotas (quotas): a token bucket per API key bounds the
//     solve-submission rate of any one client; an exhausted bucket turns
//     into HTTP 429 with a Retry-After estimate.

// parsePriority resolves an X-Priority header value, a lane's name; empty
// means normal.
func parsePriority(s string) (cataero.Priority, error) {
	if s == "" {
		return cataero.PriorityNormal, nil
	}
	for p := cataero.PriorityLow; p <= cataero.PriorityHigh; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("serve: unknown priority %q (want low, normal or high)", s)
}

// quotas is a per-client token-bucket rate limiter: each client (API key)
// accrues rate tokens per second up to burst, and each solve submission
// costs one. take reports whether the submission is admitted and, when it
// is not, how long until the bucket holds a full token again.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; <= 0 disables limiting
	burst   float64
	clients map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(rate float64, burst int) *quotas {
	if burst < 1 {
		burst = 1
	}
	return &quotas{rate: rate, burst: float64(burst), clients: make(map[string]*bucket)}
}

// take spends one token from the client's bucket. When the bucket is
// empty, retryAfter is the time until one full token accrues — the
// Retry-After a 429 response should carry.
func (q *quotas) take(client string, now time.Time) (ok bool, retryAfter time.Duration) {
	if q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.clients[client]
	if b == nil {
		b = &bucket{tokens: q.burst, last: now}
		q.clients[client] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := (1 - b.tokens) / q.rate
	return false, time.Duration(wait * float64(time.Second))
}
