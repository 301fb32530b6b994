package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// passing builds a synthetic result every bound of sc holds on: all
// requests answered, fast and consistent, one cold miss per sample of each
// pool spread over the target's replicas, and the scale_out phase ten
// times faster.
func passing(sc *scenarioFile) []phaseResult {
	var out []phaseResult
	cold := map[poolKey]bool{}
	for _, ph := range sc.Phases {
		res := phaseResult{Name: ph.Name, Pool: ph.pool, Elapsed: time.Second}
		for _, a := range ph.actions {
			if a.kind == "reload" {
				res.Swaps += a.arg
			}
		}
		for _, st := range ph.Streams {
			n := int64(st.Requests)
			res.Streams = append(res.Streams, streamResult{Tenant: st.Tenant, Noisy: st.Noisy, tally: tally{
				OK: n, JobsDone: 1, Audited: n, Scans: n, Lat: []time.Duration{time.Millisecond},
			}})
			res.Metrics.ScanRequests += n
		}
		res.Metrics.Reloads = int64(res.Swaps)
		replicas := 1
		if ph.target.gateway {
			replicas = sc.Fleet.Replicas
		}
		var misses int64
		if !cold[ph.pool] {
			cold[ph.pool] = true
			misses = int64(math.Ceil(float64(ph.pool.samples) / float64(replicas)))
		}
		for i := 0; i < replicas; i++ {
			res.Metrics.Replicas = append(res.Metrics.Replicas, replicaDelta{Name: string(rune('a' + i)), Hits: 100, Misses: misses})
		}
		out = append(out, res)
	}
	if so := sc.Thresholds.ScaleOut; so != nil {
		from, to := phaseIndex(out, so.From), phaseIndex(out, so.To)
		out[to].Elapsed = time.Duration(float64(time.Second) * float64(out[to].requests()) / float64(out[from].requests()) / 10)
	}
	return out
}

func phaseIndex(phases []phaseResult, name string) int {
	for i, p := range phases {
		if p.Name == name {
			return i
		}
	}
	panic("no phase " + name)
}

// breakers each push one threshold past its bound over the phases in
// scope, leaving every other bound of the checked-in scenarios intact.
var breakers = map[string]func(t thresholds, scope []*phaseResult, all []phaseResult){
	"max_p99_ms": func(t thresholds, scope []*phaseResult, _ []phaseResult) {
		eachCompliant(scope, func(s *streamResult) {
			s.Lat = []time.Duration{time.Duration((*t.MaxP99Ms + 1) * 1e6)}
		})
	},
	"max_shed_rate": func(_ thresholds, scope []*phaseResult, _ []phaseResult) {
		eachCompliant(scope, func(s *streamResult) { s.Shed = 100 * s.OK })
	},
	"max_error_rate": func(_ thresholds, scope []*phaseResult, _ []phaseResult) {
		eachCompliant(scope, func(s *streamResult) { s.Failed = 100 * s.OK })
	},
	"min_correctness": func(_ thresholds, scope []*phaseResult, _ []phaseResult) {
		eachCompliant(scope, func(s *streamResult) { s.Incorrect = s.Audited })
	},
	"max_attack_fail_rate": func(_ thresholds, scope []*phaseResult, _ []phaseResult) {
		eachCompliant(scope, func(s *streamResult) { s.JobsLost = 2 * s.JobsDone })
	},
	// Compliant streams of contended phases shed just past the fairness
	// bound — little enough that the run-wide shed rate stays in bounds.
	"fairness_max_delta": func(t thresholds, scope []*phaseResult, _ []phaseResult) {
		d := *t.FairnessMaxDelta + 0.005
		for _, p := range scope {
			noisy := false
			for _, s := range p.Streams {
				noisy = noisy || s.Noisy
			}
			if noisy {
				eachCompliant([]*phaseResult{p}, func(s *streamResult) {
					s.Shed = int64(math.Ceil(float64(s.OK) * d / (1 - d)))
				})
			}
		}
	},
	// Every replica cold-misses the whole pool, more than once: keys wander,
	// which breaks the miss bound even where the hit-ratio floor is 0.
	"min_hit_ratio": func(_ thresholds, scope []*phaseResult, _ []phaseResult) {
		for _, p := range scope {
			eachReplica([]*phaseResult{p}, func(r *replicaDelta) {
				r.Hits, r.Misses = 0, (maxMissesPerSample+1)*int64(p.Pool.samples)
			})
		}
	},
	"scale_out": func(t thresholds, _ []*phaseResult, all []phaseResult) {
		all[phaseIndex(all, t.ScaleOut.To)].Elapsed *= 1000
	},
}

func eachCompliant(scope []*phaseResult, f func(*streamResult)) {
	for _, p := range scope {
		for i := range p.Streams {
			if !p.Streams[i].Noisy {
				f(&p.Streams[i])
			}
		}
	}
}

func eachReplica(scope []*phaseResult, f func(*replicaDelta)) {
	for _, p := range scope {
		for i := range p.Metrics.Replicas {
			f(&p.Metrics.Replicas[i])
		}
	}
}

// setThresholds lists the JSON names of the thresholds t sets.
func setThresholds(t thresholds) []string {
	var names []string
	v := reflect.ValueOf(t)
	for i := 0; i < v.NumField(); i++ {
		if !v.Field(i).IsNil() {
			names = append(names, strings.Split(v.Type().Field(i).Tag.Get("json"), ",")[0])
		}
	}
	return names
}

// TestEveryDrillCanFail proves each checked-in scenario's gate is live: a
// synthetic run passes it, and breaking any single threshold the file sets
// — at scenario or phase level — yields a violation of that threshold and
// of no other.
func TestEveryDrillCanFail(t *testing.T) {
	for file, data := range scenarioFiles(t) {
		sc, err := parseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if v := judgeRun(sc, passing(sc)); len(v) > 0 {
			t.Fatalf("%s: the passing run violates %q", file, v)
		}
		checked := 0
		for _, sp := range sc.scopes() {
			for _, name := range setThresholds(sp.t) {
				res := passing(sc)
				var in []*phaseResult
				for i := sp.from; i < sp.to; i++ {
					in = append(in, &res[i])
				}
				breakers[name](sp.t, in, res)
				v := judgeRun(sc, res)
				if len(v) == 0 {
					t.Errorf("%s %q: breaking %s raised no violation", file, sp.prefix, name)
				}
				for _, line := range v {
					if !strings.HasPrefix(line, sp.prefix+name+": ") {
						t.Errorf("%s %q: breaking %s also raised %q", file, sp.prefix, name, line)
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s sets no threshold", file)
		}
	}
}

func TestScenarioMaxP99OverrideFails(t *testing.T) {
	data := scenarioFiles(t)["noisy-neighbor.json"]
	sc, err := parseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	tiny := 1e-6 // -scenario-max-p99 1ns
	sc.Thresholds.MaxP99Ms = &tiny
	if v := judgeRun(sc, passing(sc)); len(v) != 1 || !strings.HasPrefix(v[0], "max_p99_ms: ") {
		t.Fatalf("violations = %q, want the one p99 violation", v)
	}
}

func counted(hits, misses int64) *counters { return &counters{CacheHits: hits, CacheMisses: misses} }

// Shard-affinity cases: a down replica is excluded, a healthy one that
// cannot be read fails, wandering keys trip the miss bound, and a run with
// no cache traffic proves nothing.
func TestAffinityChecks(t *testing.T) {
	hit := 0.9
	aff := thresholds{MinHitRatio: &hit}
	pre := []replicaMetrics{
		{Name: "a", Healthy: true, Metrics: counted(10, 5)},
		{Name: "b", Healthy: true, Metrics: counted(0, 0)},
		{Name: "c", Healthy: true, Metrics: counted(7, 7)},
	}
	for _, tc := range []struct {
		name string
		post []replicaMetrics
		want string // "" = passes
	}{
		{"healthy fleet", []replicaMetrics{
			{Name: "a", Healthy: true, Metrics: counted(160, 21)},
			{Name: "b", Healthy: true, Metrics: counted(150, 16)},
			{Name: "c", Healthy: true, Metrics: counted(7, 7)},
		}, ""},
		{"down replica excluded", []replicaMetrics{
			{Name: "a", Healthy: true, Metrics: counted(160, 21)},
			{Name: "b", Healthy: true, Metrics: counted(150, 16)},
			{Name: "c", Healthy: false},
		}, ""},
		{"healthy but unreachable", []replicaMetrics{
			{Name: "a", Healthy: true, Metrics: counted(160, 21)},
			{Name: "b", Healthy: true, Metrics: counted(150, 16)},
			{Name: "c", Healthy: true},
		}, "healthy replica c unreachable"},
		{"low hit ratio", []replicaMetrics{
			{Name: "a", Healthy: true, Metrics: counted(20, 21)},
			{Name: "b", Healthy: true, Metrics: counted(150, 16)},
			{Name: "c", Healthy: true, Metrics: counted(7, 7)},
		}, "replica a hit ratio"},
		{"keys wandering", []replicaMetrics{
			{Name: "a", Healthy: true, Metrics: counted(10010, 85)},
			{Name: "b", Healthy: true, Metrics: counted(10000, 80)},
			{Name: "c", Healthy: true, Metrics: counted(7, 7)},
		}, "fleet-wide misses for 32 distinct samples"},
		{"no cache traffic", pre, "no cache traffic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := []phaseResult{{Name: "p", Pool: poolKey{seed: 2, samples: 32}, Metrics: diffMetrics(pre, tc.post)}}
			v := judge(aff, res)
			switch {
			case tc.want == "" && len(v) > 0:
				t.Fatalf("unexpected violations %q", v)
			case tc.want != "" && (len(v) != 1 || !strings.Contains(v[0], tc.want)):
				t.Fatalf("violations = %q, want one containing %q", v, tc.want)
			}
		})
	}
}

// A phase's thresholds judge the phases after it that set none, and two
// phases drawing on one pool count its samples once toward the miss bound.
func TestThresholdScopes(t *testing.T) {
	sc, err := parseScenario(scenarioFiles(t)["cluster-smoke.json"])
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sc.scopes() {
		got = append(got, fmt.Sprintf("%q %s..%s", s.prefix, sc.Phases[s.from].Name, sc.Phases[s.to-1].Name))
	}
	want := []string{`"" single..kill`, `"phase fleet: " fleet..fleet-attacks`, `"phase kill: " kill..kill`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scopes = %q, want %q", got, want)
	}

	hit := 0.9
	pool := poolKey{seed: 2, samples: 32}
	window := func(misses int64) []phaseResult {
		return []phaseResult{
			{Name: "burst", Pool: pool, Metrics: metricsDelta{Replicas: []replicaDelta{{Name: "a", Hits: 1000, Misses: 60}}}},
			{Name: "attacks", Pool: pool, Metrics: metricsDelta{Replicas: []replicaDelta{{Name: "a", Misses: misses}}}},
		}
	}
	if v := judge(thresholds{MinHitRatio: &hit}, window(4)); len(v) > 0 {
		t.Fatalf("64 misses for one 32-sample pool: %q", v)
	}
	if v := judge(thresholds{MinHitRatio: &hit}, window(5)); len(v) != 1 || !strings.Contains(v[0], "65 fleet-wide misses for 32 distinct samples") {
		t.Fatalf("65 misses for one 32-sample pool: %q", v)
	}
}

func TestDiffMetricsOfAReplica(t *testing.T) {
	pre := []replicaMetrics{{Name: "r", Healthy: true, Metrics: &counters{ScanRequests: 5, CacheHits: 3, Reloads: 1}}}
	post := []replicaMetrics{{Name: "r", Healthy: true, Metrics: &counters{ScanRequests: 9, CacheHits: 4, CacheMisses: 3, Reloads: 4}}}
	d := diffMetrics(pre, post)
	if d.ScanRequests != 4 || d.Reloads != 3 || len(d.Replicas) != 1 || d.Replicas[0].Hits != 1 || d.Replicas[0].Misses != 3 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestAuditVersions(t *testing.T) {
	served := map[string]bool{"v1": true, "v2": true}
	last := []string{"v2", "v1", "v1"}
	for _, tc := range []struct {
		name    string
		seen    []string
		healthz []string
		want    string
	}{
		{"clean", []string{"v1", "v2"}, []string{"v2", "v1", ""}, ""},
		{"unserved version", []string{"v1", "v9"}, []string{"v2", "v1", "v1"}, `unserved model version "v9"`},
		{"empty version", []string{""}, []string{"v2", "v1", "v1"}, `unserved model version ""`},
		{"stale healthz", []string{"v2"}, []string{"v1", "v1", "v1"}, "replica:0 /healthz model_version v1, want v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen := map[string]bool{}
			for _, s := range tc.seen {
				seen[s] = true
			}
			v := auditVersions(served, seen, last, tc.healthz)
			switch {
			case tc.want == "" && len(v) > 0:
				t.Fatalf("unexpected violations %q", v)
			case tc.want != "" && (len(v) != 1 || !strings.Contains(v[0], tc.want)):
				t.Fatalf("violations = %q, want one containing %q", v, tc.want)
			}
		})
	}
}

func TestInvariants(t *testing.T) {
	ok := func() []phaseResult {
		return []phaseResult{{
			Name:  "p",
			Swaps: 2,
			Streams: []streamResult{{tally: tally{
				OK: 10, Scans: 10, Streams: 1, StreamedBytes: 1 << 20,
			}}},
			Metrics: metricsDelta{counters: counters{ScanRequests: 10, ScansStreamed: 1, StreamedBytes: 1 << 20, Reloads: 2}},
		}}
	}
	if v := invariants(ok()); len(v) > 0 {
		t.Fatalf("clean run violates %q", v)
	}
	for _, tc := range []struct {
		name   string
		mutate func(p *phaseResult)
		want   string
	}{
		{"scan undercount", func(p *phaseResult) { p.Metrics.ScanRequests = 9 }, "/metrics counted 9 scans"},
		{"stream undercount", func(p *phaseResult) { p.Metrics.ScansStreamed = 0 }, "(0 streamed"},
		{"byte undercount", func(p *phaseResult) { p.Metrics.StreamedBytes-- }, "/metrics counted"},
		{"reload undercount", func(p *phaseResult) { p.Metrics.Reloads = 1 }, "counted 1 reloads, 2 swapped"},
		{"bad Retry-After", func(p *phaseResult) { p.Streams[0].BadRetryAfter = 1 }, "Retry-After"},
		{"unexpected status", func(p *phaseResult) { p.Streams[0].Unexpected = 1 }, "expected status"},
		{"nothing succeeded", func(p *phaseResult) { p.Streams[0].Noisy = true }, "no compliant request succeeded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := ok()
			tc.mutate(&res[0])
			if v := invariants(res); len(v) != 1 || !strings.Contains(v[0], tc.want) {
				t.Fatalf("violations = %q, want one containing %q", v, tc.want)
			}
		})
	}
}

func TestMinScaleOut(t *testing.T) {
	for cpus, want := range map[int]float64{1: 0.2, 2: 0.2, 3: 0.2, 4: 2.5, 64: 2.5} {
		if got := minScaleOut(cpus); got != want {
			t.Errorf("minScaleOut(%d) = %v, want %v", cpus, got, want)
		}
	}
}
