package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// BENCHMARK.json at the checkout root must declare exactly what the
// benchmark reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := spec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json differs from the tables; regenerate with --spec\ngot  %+v\nwant %+v", got, want)
	}
}

func TestPercentileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	// p99 of 100 samples would leave 1 beyond; the rule lowers it to the
	// 89th value, which leaves 11 beyond... the highest rank with ≥10 above.
	p := percentile(xs, 0.99)
	if p.N != 100 || p.Value != 90 || p.Q != 0.90 {
		t.Fatalf("p99 of 1..100 = %+v, want value 90 at q 0.90 with n 100", p)
	}
	if beyond := countAbove(xs, p.Value); beyond < minBeyond {
		t.Fatalf("%d samples beyond the reported percentile, want >= %d", beyond, minBeyond)
	}

	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	p = percentile(big, 0.99)
	if p.Value != 1980 || p.Q != 0.99 {
		t.Fatalf("p99 of 1..2000 = %+v, want the true p99 (1980)", p)
	}

	// The median is never lowered, even on a tiny sample.
	if m := percentile([]float64{3, 1, 2}, 0.5); m.Value != 2 || m.N != 3 {
		t.Fatalf("median of {3,1,2} = %+v", m)
	}
	// A tail on a sample too small for any supported tail reports the median.
	if p := percentile([]float64{5, 1, 4, 2, 3}, 0.9); p.Value != 3 {
		t.Fatalf("p90 of 5 samples = %+v, want the median 3", p)
	}
}

func countAbove(xs []float64, v float64) int {
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 10)
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 10 * time.Millisecond},
		{"disjoint", []interval{iv(1, 3), iv(5, 6)}, 7 * time.Millisecond},
		{"overlap counts once", []interval{iv(1, 3), iv(2, 5)}, 6 * time.Millisecond},
		{"clipped to parent", []interval{iv(8, 12), iv(-4, 1)}, 7 * time.Millisecond},
		{"outside entirely", []interval{iv(11, 15)}, 10 * time.Millisecond},
		{"covers all", []interval{iv(0, 10)}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %v, want %v", c.name, got, c.want)
		}
	}
	// Scan reconciliation: wait + flush + self sums to the client latency.
	wait, flush := iv(0, 4), iv(4, 7)
	self := selfTime(parent, []interval{wait, flush})
	if sum := wait.dur() + flush.dur() + self; sum != parent.dur() {
		t.Fatalf("wait+flush+self = %v, want %v", sum, parent.dur())
	}
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	names := []string{"MalConv", "NonNeg", "LightGBM", "MalGCG"}
	for _, w := range workloads {
		a, b, c := makeInputs(w, 7, names), makeInputs(w, 7, names), makeInputs(w, 8, names)
		sa := a.schedule(w, w.rate, 2*time.Second)
		sb := b.schedule(w, w.rate, 2*time.Second)
		sc := c.schedule(w, w.rate, 2*time.Second)
		if len(sa) == 0 || !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: same seed gave different arrivals", w.name)
		}
		if !reflect.DeepEqual(sent(a, sa), sent(b, sb)) || !reflect.DeepEqual(digests(a.warm), digests(b.warm)) {
			t.Fatalf("%s: same seed gave different scan inputs", w.name)
		}
		if reflect.DeepEqual(sent(a, sa), sent(c, sc)) {
			t.Fatalf("%s: different seeds gave identical scan inputs", w.name)
		}
		if !reflect.DeepEqual(jobKeys(a.jobs), jobKeys(b.jobs)) || !reflect.DeepEqual(jobKeys(a.warmJobs), jobKeys(b.warmJobs)) {
			t.Fatalf("%s: same seed gave different jobs or targets", w.name)
		}
		if reflect.DeepEqual(jobKeys(a.jobs), jobKeys(c.jobs)) {
			t.Fatalf("%s: different seeds gave identical jobs", w.name)
		}
	}
}

// sent lists the digests a schedule sends, in order.
func sent(in *inputs, sched []arrival) []digest {
	out := make([]digest, len(sched))
	for i, a := range sched {
		out[i] = in.scans[a.input].sum
	}
	return out
}

func TestTargetsRotateOverEngines(t *testing.T) {
	names := []string{"MalConv", "NonNeg", "LightGBM", "MalGCG"}
	for _, w := range workloads {
		in := makeInputs(w, 3, names)
		per := len(names)
		if w.convOnly {
			per--
		}
		count := map[string]int{}
		for _, j := range in.jobs[:per*10] {
			count[j.target]++
		}
		for n, c := range count {
			if c != 10 {
				t.Fatalf("%s: target %s got %d of every %d jobs, want 10", w.name, n, c, per*10)
			}
		}
		if _, ok := count["LightGBM"]; ok == w.convOnly {
			t.Fatalf("%s: LightGBM targeted=%v, convOnly=%v", w.name, ok, w.convOnly)
		}
	}
}

func TestLargeUploadsAtFixedShare(t *testing.T) {
	w, _ := workloadByName("gateway-zipf")
	in := makeInputs(w, 1, []string{"MalConv"})
	sched := in.schedule(w, 3000, 2*time.Second)
	large := 0
	for _, a := range sched {
		if len(in.scans[a.input].raw) >= largeBase {
			large++
		}
	}
	if want := len(sched) / w.large; large != want {
		t.Fatalf("%d multi-MiB uploads in %d scans, want exactly %d", large, len(sched), want)
	}
}

func TestRungAcceptance(t *testing.T) {
	base := rungStats{Rate: 100, Due: 1000, OnTime: 990, BacklogAt: 0, Conns: 2, Limit: 100 * time.Millisecond}
	if !base.accepted() {
		t.Fatal("99% on time with no backlog rejected")
	}
	late := base
	late.OnTime = 989
	if late.accepted() {
		t.Fatal("98.9% on time accepted")
	}
	growing := base
	growing.BacklogAt = 11 // more than rate × limit = 10 scans could drain
	if growing.accepted() {
		t.Fatal("rung with a growing backlog accepted")
	}
	small := base
	small.BacklogAt = 10
	if !small.accepted() {
		t.Fatal("backlog that drains within one limit rejected")
	}
	if (rungStats{Rate: 100, Limit: time.Second}).accepted() {
		t.Fatal("rung with nothing due accepted")
	}
}

func TestBisectionFindsHighestAcceptedRung(t *testing.T) {
	for capacity := -1; capacity < 31; capacity++ {
		b := newBisection(31)
		tries := 0
		for !b.done() {
			i := b.next()
			tries++
			b.record(i, i <= capacity)
		}
		if b.lo != capacity {
			t.Fatalf("capacity %d: search ended on %d", capacity, b.lo)
		}
		if tries > rounds {
			t.Fatalf("capacity %d: %d rungs on a 31-rung ladder, want <= %d (one per round)", capacity, tries, rounds)
		}
	}
}

func TestWindowedTailTakesMedianOfWindows(t *testing.T) {
	// 4400 samples: four windows of 1100, each keeping 10 beyond its p99.
	// One window stalls; the figure must come from the other three.
	var xs []float64
	for w := 0; w < 4; w++ {
		for i := 0; i < 1100; i++ {
			v := float64(i%100) / 10 // 0..9.9
			if w == 2 && i%10 == 0 {
				v = 100 // a stalled window: a tenth of its scans at 100
			}
			xs = append(xs, v)
		}
	}
	p, windows := windowedPct(xs, 0.99)
	if windows != 4 || p.N != 4400 {
		t.Fatalf("windows=%d n=%d, want 4 and 4400", windows, p.N)
	}
	if p.Value > 10 {
		t.Fatalf("windowed p99 = %v, want the unstalled windows' p99 (<= 9.9)", p.Value)
	}
	if pooled := percentile(xs, 0.99); pooled.Value != 100 {
		t.Fatalf("pooled p99 = %v, want the stall (100)", pooled.Value)
	}
	// Too few samples for two windows: the pooled percentile.
	if _, w := windowedPct(xs[:2000], 0.99); w != 1 {
		t.Fatalf("2000 samples split into %d windows, want 1", w)
	}
}

func digests(in []scanInput) []digest {
	out := make([]digest, len(in))
	for i, s := range in {
		out[i] = s.sum
	}
	return out
}

func jobKeys(js []jobSpec) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.target + string(j.input.sum[:])
	}
	return out
}
