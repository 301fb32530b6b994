package main

import (
	"math"
	"net/http"
	"sort"
	"time"

	"mpass/internal/server"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec declares a metric: its unit, which direction is better and,
// for end-to-end metrics, the share of the parent's median by which it may
// worsen before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the end-to-end metrics BENCHMARK.json gates on: a user
// sees each of them, and on the development host each one's spread over ten
// seeds stays inside its bound on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"asr", "ratio", "higher", 0.1},
	{"avq", "count", "lower", 0.1},
	{"apr_pct", "%", "lower", 0.1},
	{"rss_peak_mb", "MB", "lower", 0.25},
}

// reportOnly are end-to-end metrics every untraced run prints but
// BENCHMARK.json does not gate on: on a shared two-vCPU host their spread
// over ten seeds exceeds the largest allowed bound (README.md has the
// measurements), so a gate on them would reject changes for noise.
var reportOnly = []metricSpec{
	{"scan_p99_ms", "ms", "lower", 0},
	{"scan_max_rps", "1/s", "higher", 0},
	{"job_p90_ms", "ms", "lower", 0},
}

var perLayer = []metricSpec{
	{"server.cache_hit_ratio", "ratio", "higher", 0},
	{"server.mean_batch", "count", "higher", 0},
	{"server.batch_wait_ms", "ms", "lower", 0},
	{"server.scan_self_ms", "ms", "lower", 0},
	{"server.shed_ratio", "ratio", "lower", 0},
	{"server.oracle_retries", "count", "lower", 0},
	{"tenant.rejected", "count", "lower", 0},
	{"engine.MalConv.us_per_sample", "us", "lower", 0},
	{"engine.NonNeg.us_per_sample", "us", "lower", 0},
	{"engine.LightGBM.us_per_sample", "us", "lower", 0},
	{"engine.MalGCG.us_per_sample", "us", "lower", 0},
	{"engine.flush_ms", "ms", "lower", 0},
	{"engine.busy_share", "ratio", "lower", 0},
	{"attack.run_ms", "ms", "lower", 0},
	{"attack.wait_ms", "ms", "lower", 0},
	{"attack.gradient_ms_per_job", "ms", "lower", 0},
	{"attack.gradient_calls_per_job", "count", "lower", 0},
	{"attack.oracle_ms_per_query", "ms", "lower", 0},
	{"attack.build_ms_per_round", "ms", "lower", 0},
	{"attack.rounds_per_job", "count", "lower", 0},
	{"gateway.hop_ms", "ms", "lower", 0},
	{"gateway.self_ms", "ms", "lower", 0},
	{"gateway.pre_hop_ms", "ms", "lower", 0},
	{"gateway.replica_ms", "ms", "lower", 0},
	{"gateway.relay_ms", "ms", "lower", 0},
	{"gateway.replica_hit_ratio_min", "ratio", "higher", 0},
	{"gateway.scan_retries", "count", "lower", 0},
	{"gateway.scans_spooled", "count", "lower", 0},
	{"pefile.parse_us", "us", "lower", 0},
	{"features.extract_us", "us", "lower", 0},
	{"sandbox.run_us", "us", "lower", 0},
	{"recovery.build_us", "us", "lower", 0},
	{"loadgen.lag_p99_ms", "ms", "lower", 0},
	{"trace.scan_p50_ms", "ms", "lower", 0},
	{"trace.scan_p99_ms", "ms", "lower", 0},
	{"trace.job_p50_ms", "ms", "lower", 0},
	{"trace.job_p90_ms", "ms", "lower", 0},
	{"trace.unreconciled", "count", "lower", 0},
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// summary is what a run reports: the result line's fields plus the detail
// the human-readable report prints.
type summary struct {
	correct           bool
	attempted, failed int
	metrics           map[string]metric // the result line's metrics
	extra             map[string]metric // printed, not in the result line
	scanP50, scanP99  pctResult
	jobP50, jobP90    pctResult
	scanWin, jobWin   int // windows the tail percentiles are medians of
	failedRatio       float64
	gwBreakdown       gatewayBreakdown
	traced            int
	mismatches        []string
}

// summarize turns a run into its metrics: end-to-end ones for an untraced
// run, per-layer ones for a traced run.
func summarize(r *runOut) summary {
	s := summary{metrics: map[string]metric{}, extra: map[string]metric{}}
	put := func(name string, v float64) {
		for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
			if spec.Name == name {
				s.metrics[name] = metric{Value: v, Unit: spec.Unit}
				return
			}
		}
		for _, spec := range reportOnly {
			if spec.Name == name {
				s.extra[name] = metric{Value: v, Unit: spec.Unit}
				return
			}
		}
		panic("undeclared metric " + name)
	}

	// Failures: nominal-phase scans that were dropped, refused or errored,
	// jobs that failed to submit, poll or run, and every wrong answer.
	// Ladder rungs probe capacity on purpose; their misses set
	// scan_max_rps and are not failures.
	var lat []float64
	for _, o := range r.nominal {
		s.attempted++
		if o.status != http.StatusOK || o.err != nil {
			s.failed++
			continue
		}
		lat = append(lat, ms(o.latency()))
	}
	var jobLat []float64
	var success int
	var queries, apr float64
	for _, j := range r.jobs() {
		s.attempted++
		if j.err != nil || j.view.State != server.JobDone {
			s.failed++
			continue
		}
		jobLat = append(jobLat, ms(j.observed.Sub(j.submit)))
		if j.view.Success != nil && *j.view.Success {
			success++
			queries += float64(*j.view.Queries)
			apr += j.view.APRPercent
		}
	}
	s.attempted += r.checks.scansChecked + r.checks.aesChecked
	s.failed += len(r.checks.mismatches)
	s.mismatches = r.checks.mismatches
	s.correct = len(r.checks.mismatches) == 0
	if s.attempted > 0 {
		s.failedRatio = float64(s.failed) / float64(s.attempted)
	}
	s.scanP50, s.jobP50 = percentile(lat, 0.5), percentile(jobLat, 0.5)
	s.scanP99, s.scanWin = windowedPct(lat, 0.99)
	s.jobP90, s.jobWin = windowedPct(jobLat, 0.9)

	if !r.traced {
		var setup []float64
		for _, d := range r.setup {
			setup = append(setup, d.Seconds())
		}
		put("setup_s", median(setup))
		put("scan_p50_ms", s.scanP50.Value)
		put("scan_p99_ms", s.scanP99.Value)
		put("scan_max_rps", r.maxRPS)
		put("job_p50_ms", s.jobP50.Value)
		put("job_p90_ms", s.jobP90.Value)
		put("jobs_per_s", jobRate(r))
		put("asr", ratio(float64(success), float64(len(jobLat))))
		put("avq", ratio(queries, float64(success)))
		put("apr_pct", ratio(apr, float64(success)))
		put("rss_peak_mb", r.rssMB)
		return s
	}

	l := analyzeLayers(r)
	s.gwBreakdown, s.traced = l.gw, l.traced
	for k, v := range l.values {
		put(k, v)
	}
	for k, v := range r.micro {
		put(k, v)
	}
	put("trace.scan_p50_ms", s.scanP50.Value)
	put("trace.scan_p99_ms", s.scanP99.Value)
	put("trace.job_p50_ms", s.jobP50.Value)
	put("trace.job_p90_ms", s.jobP90.Value)
	return s
}

// jobRate is jobs reaching a terminal state per second of job window: the
// median of the job segments' rates. A single segment (attack-mix runs its
// jobs for the whole run) is cut into five equal parts once it has 125
// completions, for the same reason tails are windowed.
func jobRate(r *runOut) float64 {
	segs := r.jobSegs
	if len(segs) == 1 {
		whole := segs[0]
		if n := completedIn(whole.jobs, whole.interval); n >= 125 {
			segs = nil
			step := whole.dur() / 5
			for i := 0; i < 5; i++ {
				part := interval{whole.start.Add(time.Duration(i) * step), whole.start.Add(time.Duration(i+1) * step)}
				segs = append(segs, jobSegment{interval: part, jobs: whole.jobs})
			}
		}
	}
	rates := make([]float64, len(segs))
	for i, s := range segs {
		rates[i] = float64(completedIn(s.jobs, s.interval)) / s.dur().Seconds()
	}
	return median(rates)
}

// completedIn counts the jobs that reached a terminal state inside seg.
func completedIn(jobs []*jobObs, seg interval) int {
	n := 0
	for _, j := range jobs {
		if j.err == nil && j.view.State == server.JobDone && !j.observed.Before(seg.start) && !j.observed.After(seg.end) {
			n++
		}
	}
	return n
}

// reconcileTol is how far a request's stage sum may sit from its measured
// total: 50 µs of clock granularity plus 1% of the total.
func reconcileTol(total time.Duration) time.Duration {
	return 50*time.Microsecond + total/100
}

// jobReconcileTol is the rule for attack jobs: 1 ms plus 10% of the job's
// elapsed_ms. It is looser than the scan rule because one stage — the
// server's sandbox check of a successful AE, inside elapsed_ms but outside
// the attack call — is timed by replaying the same call after the run, not
// in place under load, and because the job goroutine can be descheduled
// between stages on a saturated host.
func jobReconcileTol(total time.Duration) time.Duration {
	return time.Millisecond + total/10
}

// gatewayBreakdown splits gateway scans into where their time went: before
// the hop (receiving, hashing, spooling), inside the replica, the rest of
// the hop (forwarding and response headers), and relaying the body back.
type gatewayBreakdown struct {
	small, large gwStages
}

type gwStages struct {
	n                                   int
	client, preHop, replica, hop, relay float64 // mean ms
}

type layers struct {
	values map[string]float64
	gw     gatewayBreakdown
	traced int // requests whose stages were reconciled
}

// analyzeLayers computes the per-layer metrics of a traced run.
func analyzeLayers(r *runOut) layers {
	v := map[string]float64{}
	out := layers{values: v}
	spans := r.spans
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })

	// /metrics deltas over the nominal-phase segments (scan side) and over
	// the whole run (oracle retries, tenant rejections).
	var hits, misses, batches, raws, rejected, requests float64
	minHit := math.Inf(1)
	for i := range r.runStart.reps {
		var h, m float64
		for _, p := range r.nominalPairs {
			a, b := p.before.reps[i], p.after.reps[i]
			h += float64(b.CacheHits - a.CacheHits)
			m += float64(b.CacheMisses - a.CacheMisses)
			batches += float64(b.Batches - a.Batches)
			raws += float64(b.BatchedRaws - a.BatchedRaws)
			rejected += float64(b.ScanRejected - a.ScanRejected)
			requests += float64(b.ScanRequests - a.ScanRequests)
		}
		hits, misses = hits+h, misses+m
		if h+m > 0 {
			minHit = math.Min(minHit, h/(h+m))
		}
		a, e := r.runStart.reps[i], r.runEnd.reps[i]
		v["server.oracle_retries"] += float64(e.OracleRetries - a.OracleRetries)
		v["tenant.rejected"] += float64(e.TenantRejected - a.TenantRejected)
	}
	v["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["server.mean_batch"] = ratio(raws, batches)
	v["server.shed_ratio"] = ratio(rejected, requests)
	v["gateway.replica_hit_ratio_min"], v["gateway.scan_retries"], v["gateway.scans_spooled"] = 0, 0, 0
	if r.w.replicas > 1 && !math.IsInf(minHit, 1) {
		v["gateway.replica_hit_ratio_min"] = minHit
	}
	for _, p := range r.nominalPairs {
		v["gateway.scan_retries"] += float64(p.after.gw.ScanRetries - p.before.gw.ScanRetries)
		v["gateway.scans_spooled"] += float64(p.after.gw.ScansSpooled - p.before.gw.ScansSpooled)
	}

	// Engines: time per sample over every ScoreBatch of the measured run;
	// flushes over the nominal phase.
	engDur, engN := map[string]time.Duration{}, map[string]int{}
	var flushes []span
	flushByID := map[digest][]int{}
	handles := map[int64]span{}
	var hops []span
	for _, sp := range spans {
		switch sp.kind {
		case spanEngine:
			engDur[sp.name] += sp.end.Sub(sp.start)
			engN[sp.name] += sp.n
		case spanFlush:
			flushes = append(flushes, sp)
			for _, id := range sp.ids {
				flushByID[id] = append(flushByID[id], len(flushes)-1)
			}
		case spanHandle:
			if sp.seq != 0 {
				handles[sp.seq] = sp
			}
		case spanHop:
			hops = append(hops, sp)
		}
	}
	for _, name := range r.names {
		v["engine."+name+".us_per_sample"] = ratio(float64(engDur[name])/1e3, float64(engN[name]))
	}
	var flushMs []float64
	var busy, nominalTime time.Duration
	for _, seg := range r.nominalSegs {
		nominalTime += seg.dur()
	}
	for _, f := range flushes {
		for _, seg := range r.nominalSegs {
			if !f.start.Before(seg.start) && !f.end.After(seg.end) {
				flushMs = append(flushMs, ms(f.end.Sub(f.start)))
				busy += f.end.Sub(f.start)
				break
			}
		}
	}
	v["engine.flush_ms"] = mean(flushMs)
	v["engine.busy_share"] = ratio(busy.Seconds(), nominalTime.Seconds()*float64(r.w.replicas))

	// Scans: client latency (send to reply) split into batch wait, the
	// flush that scored it and self time; gateway scans into the hop and
	// the gateway's own share.
	hopsByID := map[digest][]int{}
	for i, h := range hops {
		for _, id := range h.ids {
			hopsByID[id] = append(hopsByID[id], i)
		}
	}
	var waits, selfs []float64
	var gwSelf, gwHop, gwPre, gwRep, gwRelay []float64
	unreconciled := 0
	for _, o := range r.nominal {
		if o.status != http.StatusOK || o.err != nil {
			continue
		}
		out.traced++
		sent := interval{o.sent, o.end}
		lat := sent.dur()
		id := o.sum
		if r.w.replicas > 1 {
			if hi, ok := firstWithin(hops, hopsByID[id], sent); ok {
				hp := hops[hi]
				hopIv := interval{hp.start, hp.end}
				self := selfTime(sent, []interval{hopIv})
				if d := self + hopIv.dur() - lat; d > reconcileTol(lat) || -d > reconcileTol(lat) {
					unreconciled++
				}
				gwSelf = append(gwSelf, ms(self))
				gwHop = append(gwHop, ms(hopIv.dur()))
				pre, relay := ms(hp.start.Sub(o.sent)), ms(hp.end.Sub(hp.mid))
				gwPre = append(gwPre, pre)
				gwRelay = append(gwRelay, relay)
				rep := 0.0
				if hd, ok := handles[hp.seq]; ok {
					rep = ms(hd.end.Sub(hd.start))
				}
				gwRep = append(gwRep, rep)
				st := &out.gw.small
				if r.largeIDs[o.sum] {
					st = &out.gw.large
				}
				st.n++
				st.client += ms(lat)
				st.preHop += pre
				st.replica += rep
				st.hop += ms(hopIv.dur())
				st.relay += relay
			} else {
				unreconciled++
			}
		}
		if o.cached {
			selfs = append(selfs, ms(lat))
			continue
		}
		fi, ok := firstWithin(flushes, flushByID[id], sent)
		if !ok {
			if !r.largeIDs[o.sum] {
				unreconciled++
			}
			continue
		}
		f := flushes[fi]
		wait := interval{o.sent, f.start}
		fl := interval{f.start, f.end}
		self := selfTime(sent, []interval{wait, fl})
		if d := wait.dur() + fl.dur() + self - lat; d > reconcileTol(lat) || -d > reconcileTol(lat) {
			unreconciled++
		}
		waits = append(waits, ms(wait.dur()))
		selfs = append(selfs, ms(self))
	}
	v["server.batch_wait_ms"] = mean(waits)
	v["server.scan_self_ms"] = mean(selfs)
	v["gateway.self_ms"] = mean(gwSelf)
	v["gateway.hop_ms"] = mean(gwHop)
	v["gateway.pre_hop_ms"] = mean(gwPre)
	v["gateway.replica_ms"] = mean(gwRep)
	v["gateway.relay_ms"] = mean(gwRelay)
	for _, st := range []*gwStages{&out.gw.small, &out.gw.large} {
		if st.n > 0 {
			n := float64(st.n)
			st.client, st.preHop, st.replica, st.hop, st.relay = st.client/n, st.preHop/n, st.replica/n, st.hop/n, st.relay/n
		}
	}

	// Attack jobs: the AttackFunc span split into gradient calls, oracle
	// queries and the remainder (candidate build), checked against the
	// server's own elapsed_ms.
	runs := map[digest][]span{}
	parts := map[digest][]span{}
	for _, sp := range spans {
		switch sp.kind {
		case spanAttack:
			runs[sp.ids[0]] = append(runs[sp.ids[0]], sp)
		case spanGradient, spanOracle:
			parts[sp.ids[0]] = append(parts[sp.ids[0]], sp)
		}
	}
	var runMs, waitMs, gradMs, gradCalls, rounds []float64
	var oracleDur, buildDur time.Duration
	var oracleN, roundN int
	for _, j := range r.jobs() {
		if j.err != nil || j.view.State != server.JobDone {
			continue
		}
		out.traced++
		runMs = append(runMs, j.view.ElapsedMs)
		waitMs = append(waitMs, ms(j.observed.Sub(j.submit))-j.view.ElapsedMs)
		if j.view.Rounds != nil {
			rounds = append(rounds, float64(*j.view.Rounds))
		}
		win := interval{j.submit, j.observed}
		var run *span
		for i, sp := range runs[j.spec.input.sum] {
			if !sp.start.Before(win.start) && !sp.end.After(win.end) {
				run = &runs[j.spec.input.sum][i]
				break
			}
		}
		if run == nil {
			unreconciled++
			continue
		}
		runIv := interval{run.start, run.end}
		var g, o time.Duration
		var gn int
		var children []interval
		for _, p := range parts[j.spec.input.sum] {
			if p.start.Before(run.start) || p.end.After(run.end) {
				continue
			}
			children = append(children, interval{p.start, p.end})
			if p.kind == spanGradient {
				g += p.end.Sub(p.start)
				gn++
			} else {
				o += p.end.Sub(p.start)
				oracleN++
			}
		}
		build := selfTime(runIv, children)
		elapsed := time.Duration(j.view.ElapsedMs * 1e6)
		if d := g + o + build + j.verify - elapsed; d > jobReconcileTol(elapsed) || -d > jobReconcileTol(elapsed) {
			unreconciled++
		}
		gradMs = append(gradMs, ms(g))
		gradCalls = append(gradCalls, float64(gn))
		oracleDur += o
		buildDur += build
		roundN += run.n
	}
	v["attack.run_ms"] = mean(runMs)
	v["attack.wait_ms"] = mean(waitMs)
	v["attack.gradient_ms_per_job"] = mean(gradMs)
	v["attack.gradient_calls_per_job"] = mean(gradCalls)
	v["attack.oracle_ms_per_query"] = ratio(ms(oracleDur), float64(oracleN))
	v["attack.build_ms_per_round"] = ratio(ms(buildDur), float64(roundN))
	v["attack.rounds_per_job"] = mean(rounds)
	v["loadgen.lag_p99_ms"] = percentile(r.lag, 0.99).Value
	v["trace.unreconciled"] = float64(unreconciled)
	return out
}

// firstWithin picks, among the candidate spans, the earliest that lies
// inside the client interval.
func firstWithin(spans []span, idx []int, client interval) (int, bool) {
	for _, i := range idx {
		s := spans[i]
		if !s.start.Before(client.start) && !s.end.After(client.end) {
			return i, true
		}
	}
	return 0, false
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
