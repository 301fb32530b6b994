package server

import (
	"math"
	"testing"
	"time"
)

// TestRetryAfterSecs tables the drain-rate estimator, pinning the
// cold-start guards: with no observed completions (or a non-positive
// span) there is no rate to divide by, and the answer must be the
// minimum legal hint — never a division by zero, never "Retry-After: 0".
func TestRetryAfterSecs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		backlog   int
		completed int64
		span      float64
		want      int
	}{
		{"cold start: nothing completed", 100, 0, 10, 1},
		{"cold start: zero span", 100, 50, 0, 1},
		{"cold start: negative span (clock step)", 100, 50, -3, 1},
		{"cold start: both zero", 0, 0, 0, 1},
		{"zero backlog still floors at 1", 0, 1000, 1, 1},
		{"steady state", 9, 10, 10, 10},
		{"fractional estimate rounds up", 1, 3, 2, 2}, // 2 / 1.5 = 1.33 -> 2
		{"exactly the floor", 0, 1, 1, 1},
		{"exactly the ceiling", 59, 1, 1, 60},
		{"above the ceiling clamps", 1000, 1, 100, 60},
		{"huge backlog, tiny rate", 1 << 30, 1, 3600, 60},
		{"a span past the window divides by the window", 29, 30, 3600, 30},
	} {
		if got := RetryAfterSecs(tc.backlog, tc.completed, tc.span); got != tc.want {
			t.Errorf("%s: RetryAfterSecs(%d, %d, %v) = %d, want %d",
				tc.name, tc.backlog, tc.completed, tc.span, got, tc.want)
		}
	}
}

// TestRetryAfterRecentRate: the hint divides the completions of the last
// RetryAfterWindow by the seconds they span, so a burst after ten idle
// minutes is told how long its backlog takes at the burst's own rate — from
// its first second on — not at a lifetime average the idle stretch dragged
// down, nor at a window the burst has only begun to fill.
func TestRetryAfterRecentRate(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	var d DrainRate
	for s := 0; s < 60; s++ { // a busy first minute, 10 completions a second
		d.Add(t0.Add(time.Duration(s)*time.Second), 10)
	}
	burst := t0.Add(11 * time.Minute)      // after ten idle minutes
	for s := 0; s < retryWindowSecs; s++ { // 5 a second, filling the window
		d.Add(burst.Add(time.Duration(s)*time.Second), 5)
	}
	end := burst.Add(RetryAfterWindow - time.Second/2)

	for _, tc := range []struct {
		name    string
		at      time.Time
		backlog int
		want    int
	}{
		// 150 completions over the 30s window: 5/s, so 150 queued take 30s.
		// The lifetime average, 750 over ~690s, would have said 60.
		{"burst after 10 idle minutes", end, 149, 30},
		// The burst's first second alone: 5 completions over 1s, not 30s.
		{"window holds only the burst's first second", burst.Add(time.Second / 2), 0, 1},
		{"burst's first second, backlog of 9", burst.Add(time.Second / 2), 9, 2},
		{"burst's third second", burst.Add(2*time.Second + time.Second/2), 149, 30},
		{"just before the burst the window is idle: cold-start floor", burst.Add(-time.Second), 149, 1},
		{"ten idle minutes after the burst: cold-start floor", end.Add(10 * time.Minute), 149, 1},
	} {
		n, span := d.Recent(tc.at, t0)
		if got := RetryAfterSecs(tc.backlog, n, span); got != tc.want {
			t.Errorf("%s: RetryAfterSecs(%d, %d, %v) = %d, want %d",
				tc.name, tc.backlog, n, span, got, tc.want)
		}
	}

	// The first half-second of uptime: 10 completions over 0.5s is 20/s, so
	// 40 queued take 2s.
	var fresh DrainRate
	fresh.Add(t0, 10)
	if n, span := fresh.Recent(t0.Add(time.Second/2), t0); RetryAfterSecs(39, n, span) != 2 {
		t.Errorf("span capped by uptime: Recent = (%d, %v), RetryAfterSecs = %d, want 2", n, span, RetryAfterSecs(39, n, span))
	}

	var cold DrainRate
	if n, span := cold.Recent(t0, t0.Add(-10*time.Second)); n != 0 || span != 0 || RetryAfterSecs(100, n, span) != 1 {
		t.Errorf("cold start: Recent = (%d, %v), RetryAfterSecs = %d, want (0, 0) and 1", n, span, RetryAfterSecs(100, n, span))
	}
	before1970 := time.Unix(-5, 0)
	cold.Add(before1970, 3)
	if n, span := cold.Recent(before1970, before1970.Add(-time.Hour)); n != 3 || span != 1 {
		t.Errorf("pre-1970 second: Recent = (%d, %v), want (3, 1)", n, span)
	}
}

// TestClampRetrySecs drills the clamp boundaries, including the float
// oddities the division could produce: NaN fails every comparison, so the
// `!(secs >= 1)` floor must catch it.
func TestClampRetrySecs(t *testing.T) {
	for _, tc := range []struct {
		secs float64
		want int
	}{
		{math.NaN(), 1},
		{math.Inf(-1), 1},
		{math.Inf(1), 60},
		{-5, 1},
		{0, 1},
		{0.5, 1},
		{1, 1},
		{59.9, 59},
		{60, 60},
		{60.1, 60},
		{1e12, 60},
	} {
		if got := clampRetrySecs(tc.secs); got != tc.want {
			t.Errorf("clampRetrySecs(%v) = %d, want %d", tc.secs, got, tc.want)
		}
	}
}

// TestRetryAfterQuota checks the token-bucket refill rendering: whole
// seconds rounded up, floored at 1 (a sub-second refill must not tell the
// client "retry in 0"), capped at 60.
func TestRetryAfterQuota(t *testing.T) {
	for _, tc := range []struct {
		wait time.Duration
		want string
	}{
		{0, "1"},
		{-time.Second, "1"},
		{time.Millisecond, "1"},
		{500 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1200 * time.Millisecond, "2"},
		{59 * time.Second, "59"},
		{90 * time.Second, "60"},
	} {
		if got := retryAfterQuota(tc.wait); got != tc.want {
			t.Errorf("retryAfterQuota(%v) = %q, want %q", tc.wait, got, tc.want)
		}
	}
}

// TestRetryAfterColdServer pins the estimator at the HTTP layer's inputs:
// a server that has completed nothing yet must advertise the floor hint,
// not crash or emit 0.
func TestRetryAfterColdServer(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if got := s.retryAfterScan(); got != "1" {
		t.Errorf("cold retryAfterScan = %q, want \"1\"", got)
	}
	if got := s.retryAfterAttack(); got != "1" {
		t.Errorf("cold retryAfterAttack = %q, want \"1\"", got)
	}
}
