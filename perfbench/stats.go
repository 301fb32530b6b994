package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is noise, so the percentile is lowered until
// the sample supports it.
const minBeyond = 10

// pctResult is one reported percentile: the value, the percentile actually
// reported (at most the one asked for), and the sample count it rests on.
type pctResult struct {
	Value float64
	Q     float64 // effective percentile in [0, 1]
	N     int
}

// percentile reports the q-th percentile of xs by the nearest-rank rule,
// lowered to the highest percentile that keeps at least minBeyond samples
// above it. The median is never lowered. An empty sample reports NaN.
func percentile(xs []float64, q float64) pctResult {
	n := len(xs)
	if n == 0 {
		return pctResult{Value: math.NaN(), N: 0}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if q > 0.5 {
		if lim := n - minBeyond - 1; idx > lim {
			idx = lim
		}
		if mid := int(math.Ceil(0.5*float64(n))) - 1; idx < mid {
			idx = mid
		}
	}
	if idx < 0 {
		idx = 0
	}
	return pctResult{Value: s[idx], Q: float64(idx+1) / float64(n), N: n}
}

// maxWindows caps how many windows a tail percentile is split into.
const maxWindows = 8

// windowedPct reports a tail percentile robustly. xs is in time order. When
// the sample splits into at least two consecutive windows that each keep
// minBeyond samples beyond q, it reports the median of the windows'
// percentiles, so one stalled second on a shared host moves one window, not
// the figure; otherwise it reports the pooled percentile. N is the whole
// sample; windows is how many windows the figure is the median of.
func windowedPct(xs []float64, q float64) (p pctResult, windows int) {
	per := int(math.Ceil(float64(minBeyond+1) / (1 - q)))
	w := len(xs) / per
	if w > maxWindows {
		w = maxWindows
	}
	if w < 2 {
		return percentile(xs, q), 1
	}
	vals := make([]float64, w)
	var qs float64
	for i := range vals {
		win := percentile(xs[i*len(xs)/w:(i+1)*len(xs)/w], q)
		vals[i] = win.Value
		qs += win.Q
	}
	return pctResult{Value: median(vals), Q: qs / float64(w), N: len(xs)}, w
}

// median is the 50th percentile's value.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// mean is the arithmetic mean; 0 for an empty sample, which is the honest
// figure for a per-item cost when no item ran.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// interval is a closed-open span of wall time.
type interval struct{ start, end time.Time }

func (iv interval) dur() time.Duration { return iv.end.Sub(iv.start) }

// selfTime is a parent span's duration minus the part of it its children
// cover. Children are clipped to the parent and overlaps between children
// count once, so self time is never negative and never double-subtracts.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// rungStats is what one ladder rung observed: scans due in the rung, how
// many returned 200 within the latency limit, and the backlog — scans due
// but not yet sent — when the rung's schedule ended.
type rungStats struct {
	Rate      float64
	Due       int
	OnTime    int
	BacklogAt int // unsent scans at the end of the schedule
	Conns     int
	Limit     time.Duration
}

// onTimeShare is the share of due scans that met the limit with a 200.
func (r rungStats) onTimeShare() float64 {
	if r.Due == 0 {
		return 0
	}
	return float64(r.OnTime) / float64(r.Due)
}

// accepted is the ladder rule: at least 99% of the scans due in the rung
// returned 200 within the limit, and the backlog left when the schedule
// ended could still drain within one latency limit at the rung's rate —
// more than that means arrivals were outrunning service.
func (r rungStats) accepted() bool {
	return r.Due > 0 && r.onTimeShare() >= 0.99 && r.BacklogAt <= r.allowance()
}

// allowance is the backlog one latency limit at the rung's rate drains
// (never less than one scan per connection).
func (r rungStats) allowance() int {
	return max(int(math.Ceil(r.Rate*r.Limit.Seconds())), r.Conns)
}

// decisive reports whether a rejected rung missed by a wide margin — under
// 90% on time, or a backlog four times what could drain — so that running
// it again could not change the verdict. A marginal miss is retried once:
// one scheduler hiccup on a shared host must not discard every rung above.
func (r rungStats) decisive() bool {
	return r.onTimeShare() < 0.9 || r.BacklogAt > 4*r.allowance()
}

// bisection searches an ascending ladder for its highest accepted rung,
// assuming acceptance is monotone in rate: lo is the highest rung known to
// pass (-1 for none), and every rung above hi is known to fail.
type bisection struct{ lo, hi int }

func newBisection(rungs int) bisection { return bisection{lo: -1, hi: rungs - 1} }

// done reports whether the search has converged on lo.
func (b *bisection) done() bool { return b.lo >= b.hi }

// next is the rung to try.
func (b *bisection) next() int { return (b.lo + b.hi + 1) / 2 }

// record files the verdict on rung i.
func (b *bisection) record(i int, accepted bool) {
	if accepted {
		b.lo = i
	} else {
		b.hi = i - 1
	}
}

// geomLadder is n rates from lo rising by factor step.
func geomLadder(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = math.Round(r*10) / 10
		r *= step
	}
	return out
}
