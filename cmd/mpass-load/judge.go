package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"time"
)

// counters is the slice of a replica's /metrics document the runner reads.
type counters struct {
	ScanRequests  int64 `json:"scan_requests"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	ScansStreamed int64 `json:"scans_streamed"`
	StreamedBytes int64 `json:"streamed_bytes"`
	Batches       int64 `json:"batches"`
	Reloads       int64 `json:"reloads"`
	TenantReloads int64 `json:"tenant_reloads"`
	OracleQueries int64 `json:"oracle_queries"`
	OracleRetries int64 `json:"oracle_retries"`
	OracleBreaks  int64 `json:"oracle_breaks"`
	JobsCancelled int64 `json:"jobs_cancelled"`
}

func (c *counters) add(o counters, sign int64) {
	c.ScanRequests += sign * o.ScanRequests
	c.CacheHits += sign * o.CacheHits
	c.CacheMisses += sign * o.CacheMisses
	c.ScansStreamed += sign * o.ScansStreamed
	c.StreamedBytes += sign * o.StreamedBytes
	c.Batches += sign * o.Batches
	c.Reloads += sign * o.Reloads
	c.TenantReloads += sign * o.TenantReloads
	c.OracleQueries += sign * o.OracleQueries
	c.OracleRetries += sign * o.OracleRetries
	c.OracleBreaks += sign * o.OracleBreaks
	c.JobsCancelled += sign * o.JobsCancelled
}

// replicaMetrics is one replica's /metrics as a gateway reports it; Metrics
// is nil when the gateway could not reach the replica.
type replicaMetrics struct {
	Name    string    `json:"name"`
	Healthy bool      `json:"healthy"`
	Metrics *counters `json:"metrics"`
}

// fetchMetrics reads a target's /metrics as per-replica counters. A gateway
// lists its replicas; a replica's own document is the one-member fleet.
func fetchMetrics(base string) ([]replicaMetrics, error) {
	resp, data, err := send(http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	var doc struct {
		counters
		Replicas []replicaMetrics `json:"replicas"`
	}
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &doc) != nil {
		return nil, fmt.Errorf("%s/metrics: status %d, undecodable document", base, resp.StatusCode)
	}
	if doc.Replicas != nil {
		return doc.Replicas, nil
	}
	return []replicaMetrics{{Name: base, Healthy: true, Metrics: &doc.counters}}, nil
}

// quiesce polls a target's /metrics until two consecutive snapshots agree
// — the phase's effects have landed on every replica — so a delta cannot
// flake on a half-settled, non-atomic fleet read.
func quiesce(base string) ([]replicaMetrics, error) {
	deadline := time.Now().Add(10 * time.Second)
	var prev []replicaMetrics
	for {
		cur, err := fetchMetrics(base)
		if err != nil {
			return nil, err
		}
		if prev != nil && reflect.DeepEqual(prev, cur) {
			return cur, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%s/metrics never settled within 10s", base)
		}
		prev = cur
		time.Sleep(100 * time.Millisecond)
	}
}

// replicaDelta is one replica's share of a phase.
type replicaDelta struct {
	Name         string
	Down         bool // marked down and not answering /metrics: excluded (the kill drill)
	Unreachable  bool // claimed healthy yet not answering /metrics
	Hits, Misses int64
}

// metricsDelta is what a phase did to its target's /metrics.
type metricsDelta struct {
	counters // summed over the replicas reachable after the phase
	Replicas []replicaDelta
}

func diffMetrics(pre, post []replicaMetrics) metricsDelta {
	before := map[string]counters{}
	for _, r := range pre {
		if r.Metrics != nil {
			before[r.Name] = *r.Metrics
		}
	}
	var d metricsDelta
	for _, r := range post {
		rd := replicaDelta{Name: r.Name}
		switch {
		case r.Metrics != nil:
			c := *r.Metrics
			c.add(before[r.Name], -1)
			d.add(c, 1)
			rd.Hits, rd.Misses = c.CacheHits, c.CacheMisses
		case r.Healthy:
			rd.Unreachable = true
		default:
			rd.Down = true
		}
		d.Replicas = append(d.Replicas, rd)
	}
	return d
}

// streamResult is one stream's outcome within its phase.
type streamResult struct {
	Tenant string
	Noisy  bool
	tally
}

// phaseResult is everything the judge reads about one phase.
type phaseResult struct {
	Name    string
	Pool    poolKey // the phase's sample pool
	Elapsed time.Duration
	Swaps   int // model reloads that swapped
	Streams []streamResult
	Metrics metricsDelta
}

func (p *phaseResult) requests() int64 {
	var n int64
	for _, s := range p.Streams {
		n += s.total()
	}
	return n
}

// maxMissesPerSample bounds fleet-wide cache misses per distinct sample
// wherever min_hit_ratio is set: one cold miss on the sample's home
// replica, and one more if a re-shard moves it.
const maxMissesPerSample = 2

// scope is one set of thresholds and the phases [from, to) it judges.
type scope struct {
	prefix   string // leads each violation line: "" or "phase NAME: "
	t        thresholds
	from, to int
}

// scopes lists what each set of thresholds judges: the scenario's judge
// every phase; a phase's judge it and the phases after it that set none
// of their own.
func (sc *scenarioFile) scopes() []scope {
	out := []scope{{t: sc.Thresholds, to: len(sc.Phases)}}
	for i, ph := range sc.Phases {
		if ph.Thresholds == (thresholds{}) {
			continue
		}
		j := i + 1
		for j < len(sc.Phases) && sc.Phases[j].Thresholds == (thresholds{}) {
			j++
		}
		out = append(out, scope{prefix: "phase " + ph.Name + ": ", t: ph.Thresholds, from: i, to: j})
	}
	return out
}

// judgeRun checks every scope's thresholds and the always-on invariants
// against a finished run's phase results.
func judgeRun(sc *scenarioFile, results []phaseResult) []string {
	var v []string
	for _, s := range sc.scopes() {
		for _, line := range judge(s.t, results[s.from:s.to]) {
			v = append(v, s.prefix+line)
		}
	}
	return append(v, invariants(results)...)
}

// judge checks t against the phases it scopes and returns one line per
// violated bound, each led by the threshold's JSON name.
func judge(t thresholds, phases []phaseResult) []string {
	var v []string
	bad := func(name, format string, args ...any) {
		v = append(v, name+": "+fmt.Sprintf(format, args...))
	}

	// Compliant-stream aggregates drive the traffic bounds.
	var c tally
	for _, p := range phases {
		for _, s := range p.Streams {
			if !s.Noisy {
				c.add(&s.tally)
			}
		}
	}
	sort.Slice(c.Lat, func(i, j int) bool { return c.Lat[i] < c.Lat[j] })
	p99 := float64(quantile(c.Lat, 0.99)) / 1e6
	if t.MaxP99Ms != nil && p99 > *t.MaxP99Ms {
		bad("max_p99_ms", "p99 %.1fms > %.1fms", p99, *t.MaxP99Ms)
	}
	if t.MaxShedRate != nil && rate(c.Shed, c.total()) > *t.MaxShedRate {
		bad("max_shed_rate", "compliant shed rate %.4f > %.4f", rate(c.Shed, c.total()), *t.MaxShedRate)
	}
	if t.MaxErrorRate != nil && rate(c.Failed, c.total()) > *t.MaxErrorRate {
		bad("max_error_rate", "compliant error rate %.4f (%d failed) > %.4f", rate(c.Failed, c.total()), c.Failed, *t.MaxErrorRate)
	}
	if t.MinCorrectness != nil && 1-rate(c.Incorrect, c.Audited) < *t.MinCorrectness {
		bad("min_correctness", "correctness %.4f < %.4f (%d of %d scans disagreed)",
			1-rate(c.Incorrect, c.Audited), *t.MinCorrectness, c.Incorrect, c.Audited)
	}
	if t.MaxAttackFailRate != nil && rate(c.JobsLost, c.JobsDone+c.JobsLost) > *t.MaxAttackFailRate {
		bad("max_attack_fail_rate", "%d of %d attack jobs failed", c.JobsLost, c.JobsDone+c.JobsLost)
	}
	if t.FairnessMaxDelta != nil {
		if d := fairnessDelta(phases); d > *t.FairnessMaxDelta {
			bad("fairness_max_delta", "fairness delta %.4f > %.4f", d, *t.FairnessMaxDelta)
		}
	}

	// Shard affinity under consistent-hash routing of a repeating pool:
	// repeats keep landing on the shard that scored the sample (per-replica
	// hit ratio), and each sample cold-misses on about one home replica
	// (fleet misses per distinct sample, with slack for a mid-run re-shard).
	// A broken ring degrades both: keys wander and every replica cold-misses
	// the whole pool.
	if t.MinHitRatio != nil {
		hits, misses := map[string]int64{}, map[string]int64{}
		pools := map[poolKey]bool{}
		var names []string
		var fleetHits, fleetMisses, samples int64
		for _, p := range phases {
			if !pools[p.Pool] {
				pools[p.Pool] = true
				samples += int64(p.Pool.samples)
			}
			for _, r := range p.Metrics.Replicas {
				if r.Unreachable {
					bad("min_hit_ratio", "phase %s: healthy replica %s unreachable for /metrics", p.Name, r.Name)
				}
				if _, ok := hits[r.Name]; !ok {
					names = append(names, r.Name)
				}
				hits[r.Name] += r.Hits
				misses[r.Name] += r.Misses
				fleetHits += r.Hits
				fleetMisses += r.Misses
			}
		}
		for _, n := range names {
			if h, m := hits[n], misses[n]; h+m > 0 && rate(h, h+m) < *t.MinHitRatio {
				bad("min_hit_ratio", "replica %s hit ratio %.3f (%d/%d) < %.3f — shard affinity broken", n, rate(h, h+m), h, h+m, *t.MinHitRatio)
			}
		}
		if fleetMisses > maxMissesPerSample*samples {
			bad("min_hit_ratio", "%d fleet-wide misses for %d distinct samples > %d per sample — keys are wandering across shards",
				fleetMisses, samples, maxMissesPerSample)
		}
		if fleetHits+fleetMisses == 0 {
			bad("min_hit_ratio", "no cache traffic recorded")
		}
	}

	if so := t.ScaleOut; so != nil {
		from, to := throughput(phases, so.From), throughput(phases, so.To)
		if bound := minScaleOut(runtime.NumCPU()); from <= 0 || to < bound*from {
			bad("scale_out", "%s at %.0f req/s is %.2fx %s at %.0f req/s, need >= %.2fx on %d CPUs",
				so.To, to, to/from, so.From, from, bound, runtime.NumCPU())
		}
	}
	return v
}

// minScaleOut is the host-aware scale-out bound. A fleet needs cores to
// scale onto: with >= 4 CPUs, 3 replicas must beat one by 2.5x. On smaller
// hosts the replicas time-slice the same cores and no physical speedup
// exists, so the bound degrades to a sanity check that still catches a
// pathological gateway (serialisation, lost concurrency).
func minScaleOut(cpus int) float64 {
	if cpus >= 4 {
		return 2.5
	}
	return 0.2
}

// invariants are checked on every drill, whatever its thresholds.
func invariants(phases []phaseResult) []string {
	var v []string
	var ok int64
	for _, p := range phases {
		var sent tally
		for _, s := range p.Streams {
			sent.add(&s.tally)
			if !s.Noisy {
				ok += s.OK
			}
		}
		if sent.BadRetryAfter > 0 {
			v = append(v, fmt.Sprintf("phase %s: %d 429 responses lacked an integer Retry-After >= 1", p.Name, sent.BadRetryAfter))
		}
		if sent.Unexpected > 0 {
			v = append(v, fmt.Sprintf("phase %s: %d responses differed from the stream's expected status", p.Name, sent.Unexpected))
		}
		m := p.Metrics
		if m.ScanRequests < sent.Scans || m.ScansStreamed < sent.Streams || m.StreamedBytes < sent.StreamedBytes {
			v = append(v, fmt.Sprintf("phase %s: /metrics counted %d scans (%d streamed, %d bytes), the runner had %d (%d, %d) answered",
				p.Name, m.ScanRequests, m.ScansStreamed, m.StreamedBytes, sent.Scans, sent.Streams, sent.StreamedBytes))
		}
		if m.Reloads < int64(p.Swaps) {
			v = append(v, fmt.Sprintf("phase %s: /metrics counted %d reloads, %d swapped", p.Name, m.Reloads, p.Swaps))
		}
	}
	if ok == 0 {
		v = append(v, "no compliant request succeeded")
	}
	return v
}

// auditVersions reconciles the generation audit: every scan response named
// a generation the fleet really served, and each live replica's /healthz
// agrees with its latest swap.
func auditVersions(served, seen map[string]bool, last, healthz []string) []string {
	var v []string
	for ver := range seen {
		if !served[ver] {
			v = append(v, fmt.Sprintf("scan responses carried unserved model version %q", ver))
		}
	}
	for i, h := range healthz {
		if h != "" && h != last[i] {
			v = append(v, fmt.Sprintf("replica:%d /healthz model_version %s, want %s after its last swap", i, h, last[i]))
		}
	}
	sort.Strings(v)
	return v
}

// fairnessDelta measures per-tenant isolation: how much each compliant
// tenant's shed rate degrades in phases where a noisy tenant also runs,
// versus phases without one. It returns the worst tenant's degradation.
func fairnessDelta(phases []phaseResult) float64 {
	type rates struct{ shed, total int64 }
	contended, baseline := map[string]*rates{}, map[string]*rates{}
	for _, p := range phases {
		m := baseline
		for _, s := range p.Streams {
			if s.Noisy {
				m = contended
			}
		}
		for _, s := range p.Streams {
			if s.Noisy {
				continue
			}
			if m[s.Tenant] == nil {
				m[s.Tenant] = &rates{}
			}
			m[s.Tenant].shed += s.Shed
			m[s.Tenant].total += s.total()
		}
	}
	worst := 0.0
	for tenant, c := range contended {
		b := baseline[tenant]
		if b == nil || b.total == 0 || c.total == 0 {
			continue
		}
		if d := rate(c.shed, c.total) - rate(b.shed, b.total); d > worst {
			worst = d
		}
	}
	return worst
}

func throughput(phases []phaseResult, name string) float64 {
	for _, p := range phases {
		if p.Name == name && p.Elapsed > 0 {
			return float64(p.requests()) / p.Elapsed.Seconds()
		}
	}
	return 0
}

func rate(n, of int64) float64 {
	if of == 0 {
		return 0
	}
	return float64(n) / float64(of)
}

// quantile reads the q-th quantile from an ascending latency slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
