package serve

import (
	"strconv"
	"testing"
	"time"
)

// FuzzServeHeaders feeds arbitrary X-Deadline-Ms and X-Priority values to
// their parsers. Neither may panic; an accepted deadline is positive and is
// exactly the header's count of milliseconds (no overflow), and an accepted
// priority spells its lane's name or is empty.
func FuzzServeHeaders(f *testing.F) {
	for _, seed := range []struct{ deadline, priority string }{
		{"", ""}, {"400", "high"}, {"1", "low"}, {"0", "normal"}, {"-5", "urgent"},
		{"soon", "HIGH"}, {"1.5", " low"}, {"+7", "normal\x00"},
		{"9223372036854", "high"}, {"9223372036855", "low"},
		{"10000000000000", "normal"}, {"18446744073710", ""},
		{"99999999999999999999", "high"},
	} {
		f.Add(seed.deadline, seed.priority)
	}
	f.Fuzz(func(t *testing.T, deadline, priority string) {
		d, err := parseDeadline(deadline)
		switch {
		case err != nil:
			if d != 0 {
				t.Fatalf("parseDeadline(%q) = %v with error %v", deadline, d, err)
			}
		case deadline == "":
			if d != 0 {
				t.Fatalf("empty X-Deadline-Ms gave deadline %v", d)
			}
		default:
			ms, perr := strconv.ParseInt(deadline, 10, 64)
			if perr != nil || d <= 0 || d%time.Millisecond != 0 || int64(d/time.Millisecond) != ms {
				t.Fatalf("parseDeadline(%q) = %v, want a positive %q ms", deadline, d, deadline)
			}
		}
		p, err := parsePriority(priority)
		if err == nil && priority != "" && p.String() != priority {
			t.Fatalf("parsePriority(%q) = %v", priority, p)
		}
	})
}
