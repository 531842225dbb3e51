package serve

import (
	"testing"
	"time"

	"cataero"
)

// TestQuotaTakeAndRefill drives the token bucket with explicit clocks, so
// the arithmetic is deterministic: burst spends down, an empty bucket
// reports a positive retry delay, and tokens accrue at the configured rate.
func TestQuotaTakeAndRefill(t *testing.T) {
	q := newQuotas(50, 2) // 50 tokens/s, depth 2
	t0 := time.Unix(1000, 0)
	for i := 0; i < 2; i++ {
		if ok, _ := q.take("alice", t0); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	ok, retry := q.take("alice", t0)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry-after %v implausible for 50/s", retry)
	}
	// One token accrues in 20 ms at 50/s.
	if ok, _ := q.take("alice", t0.Add(25*time.Millisecond)); !ok {
		t.Fatal("token did not refill")
	}
	// Quotas are per client: bob is untouched by alice's spending.
	if ok, _ := q.take("bob", t0); !ok {
		t.Fatal("independent client refused")
	}
}

func TestQuotaDisabled(t *testing.T) {
	q := newQuotas(0, 1)
	t0 := time.Unix(1000, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := q.take("anyone", t0); !ok {
			t.Fatal("disabled quota refused a take")
		}
	}
}

func TestParsePriority(t *testing.T) {
	for s, want := range map[string]cataero.Priority{
		"": cataero.PriorityNormal, "low": cataero.PriorityLow, "normal": cataero.PriorityNormal, "high": cataero.PriorityHigh,
	} {
		got, err := parsePriority(s)
		if err != nil || got != want {
			t.Errorf("parsePriority(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := parsePriority("urgent"); err == nil {
		t.Error("unknown priority accepted")
	}
}
