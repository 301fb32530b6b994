package server

import (
	"math"
	"strconv"
	"sync"
	"time"
)

// RetryAfterWindow is how far back every Retry-After hint looks for the
// drain rate it divides a backlog by. A lifetime average would let an idle
// stretch drag the rate down, so a burst after ten quiet minutes would be
// told to wait many times longer than the backlog really takes to drain.
const RetryAfterWindow = retryWindowSecs * time.Second

// retryWindowSecs is RetryAfterWindow in the one-second slots of DrainRate.
const retryWindowSecs = 30

// DrainRate counts completions in one-second slots, so a Retry-After hint
// can divide by the rate of the last RetryAfterWindow, or of the part of it
// that saw completions. The zero value is ready to use, and it is safe for
// concurrent use.
type DrainRate struct {
	mu    sync.Mutex
	slots [retryWindowSecs]drainSlot //mpass:guardedby mu
}

// drainSlot is the count of one wall-clock second.
type drainSlot struct {
	sec, n int64
}

// Add records n completions at now.
//
//mpass:zeroalloc
func (d *DrainRate) Add(now time.Time, n int64) {
	sec := now.Unix()
	d.mu.Lock()
	s := &d.slots[slotOf(sec)]
	if s.sec != sec {
		s.sec, s.n = sec, 0
	}
	s.n += n
	d.mu.Unlock()
}

// Recent returns the completions of the RetryAfterWindow ending at now and
// the seconds they span: from the start of the oldest second in the window
// that saw one to the end of now's second, but never further back than
// since (the process start). A burst after an idle stretch is thus rated
// over its own seconds, not over a window it has only begun to fill. With
// no completion in the window, both are 0.
func (d *DrainRate) Recent(now, since time.Time) (n int64, span float64) {
	sec := now.Unix()
	oldest := sec + 1
	d.mu.Lock()
	for _, s := range d.slots {
		if s.n > 0 && s.sec > sec-retryWindowSecs && s.sec <= sec {
			n += s.n
			oldest = min(oldest, s.sec)
		}
	}
	d.mu.Unlock()
	if n == 0 {
		return 0, 0
	}
	return n, math.Min(float64(sec-oldest+1), now.Sub(since).Seconds())
}

// slotOf maps a Unix second to its slot, also for seconds before 1970.
func slotOf(sec int64) int64 {
	return (sec%retryWindowSecs + retryWindowSecs) % retryWindowSecs
}

// retryAfter estimates how long a shed client should wait before retrying:
// the current backlog divided by the recent completion rate, clamped to
// [1, 60] seconds. recent and span are what DrainRate.Recent reports.
func (s *Server) retryAfter(backlog int, recent int64, span float64) string {
	return strconv.Itoa(RetryAfterSecs(backlog, recent, span))
}

// retryAfterScan derives the scan-shed hint from batcher throughput; scans
// drain orders of magnitude faster than attack jobs, so the two sheds
// advertise different waits.
func (s *Server) retryAfterScan() string {
	n, span := s.metrics.scansDrained.Recent(time.Now(), s.started)
	return s.retryAfter(len(s.batcher.reqs), n, span)
}

// retryAfterAttack derives the attack-shed hint from job-pool throughput.
func (s *Server) retryAfterAttack() string {
	n, span := s.jobs.drained.Recent(time.Now(), s.started)
	return s.retryAfter(s.jobs.pool.Pending(), n, span)
}

// RetryAfterSecs is the pure drain-rate estimator behind every Retry-After
// hint, on a replica and on the gateway in front of a fleet. recent is a
// count of completions and spanSeconds the seconds it was counted over, as
// DrainRate.Recent reports them; the rate divides the one by the other,
// with the span capped at RetryAfterWindow. The cold-start guard comes
// first: before any completion has been observed in the window (or with a
// non-positive span, as on a clock step) there is no rate to divide by, so
// the answer is the minimum legal hint of 1 rather than a division by zero. The clamp then bounds the estimate to [1, 60],
// which also absorbs a zero backlog (ceil(1/rate) can round to 1 but the
// clamp makes the floor unconditional) and any float oddity the division
// could produce.
func RetryAfterSecs(backlog int, recent int64, spanSeconds float64) int {
	if spanSeconds <= 0 || recent <= 0 {
		return 1
	}
	rate := float64(recent) / math.Min(spanSeconds, RetryAfterWindow.Seconds())
	return clampRetrySecs(math.Ceil(float64(backlog+1) / rate))
}

// clampRetrySecs bounds a raw estimate to the advertised [1, 60] window.
// The lower comparison is written `!(secs >= 1)` so NaN — which fails every
// comparison — lands on the safe floor instead of leaking into the header.
func clampRetrySecs(secs float64) int {
	if !(secs >= 1) {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return int(secs)
}
