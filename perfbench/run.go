package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mpass/internal/engine"
)

// setups is how many times a run sets the stack up; setup_s is their
// median. The last set-up serves the measured phases.
const setups = 5

// rounds is how many times a run cycles through its phases. Each phase is
// cut into this many segments interleaved with the others, so every metric
// samples the whole run and a slow few seconds on a shared host touch every
// phase a little instead of one phase a lot. It is also the ladder's
// bisection depth: one rung per round.
const rounds = 5

// rungGap separates ladder rungs so one rung's stragglers never land in
// the next.
const rungGap = 150 * time.Millisecond

// counterPair brackets one nominal-phase segment with /metrics readings.
type counterPair struct{ before, after counters }

// jobSegment is one slice of the job phase and the jobs submitted in it.
type jobSegment struct {
	interval
	jobs []*jobObs
}

// runOut is everything one run measured.
type runOut struct {
	w      workload
	traced bool
	conns  int
	setup  []time.Duration

	nominal      []scanObs // nominal-rate scans, in time order
	lag          []float64 // generator lateness per nominal scan, ms
	nominalSegs  []interval
	nominalPairs []counterPair
	runStart     counters
	runEnd       counters

	rungs  []rungStats
	maxRPS float64
	// scored holds the checked subset's replies from every phase; the
	// rest of a rung's replies are checked as the rung ends and dropped.
	scored []scanObs
	set    *engine.Set // the replica engines replies are checked against

	jobSegs []jobSegment

	spans    []span
	checks   checkResult
	micro    map[string]float64
	rssMB    float64
	names    []string
	largeIDs map[digest]bool
}

// jobs lists every job of the run in submission order.
func (r *runOut) jobs() []*jobObs {
	var out []*jobObs
	for _, s := range r.jobSegs {
		out = append(out, s.jobs...)
	}
	return out
}

// runWorkload sets the workload's stack up, drives it for seconds, checks
// every output and tears the stack down. Work files live under workDir.
func runWorkload(ctx context.Context, w workload, seed int64, seconds float64, traced bool, modelDir, workDir string) (*runOut, error) {
	probe, err := engine.LoadDir(modelDir)
	if err != nil {
		return nil, err
	}
	out := &runOut{w: w, traced: traced, conns: runtime.NumCPU(), names: probe.Names(), largeIDs: map[digest]bool{}}
	total := time.Duration(seconds * float64(time.Second))
	nominalD := time.Duration(w.nominalShare * float64(total))
	jobD := time.Duration(w.jobShare * float64(total))
	ladderD := total - nominalD
	if !w.concurrent {
		ladderD -= jobD
	}
	// One rung per round plus one retry of a marginal miss share the
	// ladder's time.
	rungTime := ladderD/time.Duration(rounds+1) - rungGap
	if traced {
		// The traced run reads layers, not capacity: it skips the ladder
		// and gives its time to the nominal phase.
		nominalD += ladderD
		ladderD = 0
	}

	in := makeInputs(w, seed, out.names)
	for _, id := range in.bySize {
		out.largeIDs[id] = true
	}
	spool := filepath.Join(workDir, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	var h *host
	for k := 0; k < setups; k++ {
		if traced {
			rec = newRecorder()
		}
		runtime.GC()
		start := time.Now()
		h, err = startHost(w, modelDir, spool, rec, in.bySize)
		if err == nil {
			if err = warmUp(ctx, h, in, out.conns); err != nil {
				h.close()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setup = append(out.setup, time.Since(start))
		if k < setups-1 {
			if err := h.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", k, err)
			}
		}
	}
	if rec != nil {
		rec.reset() // layers are read from the measured phases only
	}
	defer h.close()
	out.set = h.reps[0].set
	c := newClient(h.base, out.conns, h.keys)
	defer c.close()

	if out.runStart, err = h.readCounters(ctx, c); err != nil {
		return nil, err
	}
	scanSenders := out.conns
	next := 0
	var jobsDone chan []*jobObs
	if w.concurrent {
		// attack-mix: one connection runs the job loop for the whole run.
		scanSenders = max(1, out.conns-1)
		jobsDone = make(chan []*jobObs, 1)
		seg := interval{start: time.Now(), end: time.Now().Add(total)}
		out.jobSegs = []jobSegment{{interval: seg}}
		go func() {
			jobsDone <- runJobs(ctx, c, in.jobs, &next, outstanding, 0, seg.end, seg.end.Add(30*time.Second))
		}()
	}

	ladder := newBisection(len(w.ladder))
	for round := 0; round < rounds; round++ {
		// Nominal-rate scans.
		before, err := h.readCounters(ctx, c)
		if err != nil {
			return nil, err
		}
		segD := nominalD / rounds
		res := runOpenLoop(ctx, c, in, in.schedule(w, w.rate, segD), segD, scanSenders, segD+10*time.Second)
		out.scored = append(out.scored, checkReplies(&out.checks, out.set, in, res.obs)...)
		in.release(w, res.obs)
		after, err := h.readCounters(ctx, c)
		if err != nil {
			return nil, err
		}
		out.nominal = append(out.nominal, res.obs...)
		out.lag = append(out.lag, res.lag...)
		out.nominalSegs = append(out.nominalSegs, interval{before.at, after.at})
		out.nominalPairs = append(out.nominalPairs, counterPair{before, after})

		// One bisection step of the ladder. A narrow miss is run once more:
		// one hiccup on a shared host must not discard every rung above.
		if ladderD > 0 && !ladder.done() {
			i := ladder.next()
			rs := out.runRung(ctx, c, in, w.ladder[i], rungTime, scanSenders)
			if !rs.accepted() && !rs.decisive() {
				rs = out.runRung(ctx, c, in, w.ladder[i], rungTime, scanSenders)
			}
			ladder.record(i, rs.accepted())
		}

		// Quick jobs, closed loop.
		if !w.concurrent && jobD > 0 {
			seg := interval{start: time.Now(), end: time.Now().Add(jobD / rounds)}
			jobs := runJobs(ctx, c, in.jobs, &next, outstanding, 0, seg.end, seg.end.Add(30*time.Second))
			out.jobSegs = append(out.jobSegs, jobSegment{interval: seg, jobs: jobs})
		}
	}
	if ladder.lo >= 0 {
		out.maxRPS = w.ladder[ladder.lo]
	}
	if w.concurrent {
		out.jobSegs[0].jobs = <-jobsDone
	}
	if out.runEnd, err = h.readCounters(ctx, c); err != nil {
		return nil, err
	}
	if rec != nil {
		out.spans = rec.snapshot()
	}
	out.rssMB = peakRSSMB()

	// Correctness, after the clock stops: scans against direct scoring on
	// the replica's own engines, AEs against the sandbox and the target.
	checkScores(&out.checks, out.set, in, out.scored)
	checkJobs(&out.checks, h, out.jobs())
	if traced {
		if out.micro, err = microRows(in); err != nil {
			return nil, fmt.Errorf("micro rows: %w", err)
		}
	}
	return out, nil
}

// runRung offers one ladder rate for rungTime and judges it. Scans still
// queued when the schedule ends are sent late and judged by their latency;
// one not even sent a full limit after the end has certainly missed it and
// is dropped.
func (r *runOut) runRung(ctx context.Context, c *client, in *inputs, rate float64, rungTime time.Duration, senders int) rungStats {
	time.Sleep(rungGap)
	res := runOpenLoop(ctx, c, in, in.schedule(r.w, rate, rungTime), rungTime, senders, rungTime+r.w.limit)
	rs := rungStats{Rate: rate, Due: len(res.obs), BacklogAt: res.backlog, Conns: senders, Limit: r.w.limit}
	for _, o := range res.obs {
		if o.status == http.StatusOK && o.err == nil && o.latency() <= r.w.limit {
			rs.OnTime++
		}
	}
	r.scored = append(r.scored, checkReplies(&r.checks, r.set, in, res.obs)...)
	in.release(r.w, res.obs)
	r.rungs = append(r.rungs, rs)
	time.Sleep(rungGap)
	return rs
}

// warmUp fills what the first real request would otherwise pay for: the
// score caches (every pool input once), lazy quant and gradient tables
// (cold scans and one quick job per conv target).
func warmUp(ctx context.Context, h *host, in *inputs, conns int) error {
	c := newClient(h.base, conns, h.keys)
	defer c.close()
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for s := 0; s < conns; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(in.warm); i += conns {
				status, body, err := c.do(ctx, http.MethodPost, "/v1/scan", in.warm[i].raw, i)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up scan: status %d: %s", status, body)
				}
				if err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	next := 0
	deadline := time.Now().Add(30 * time.Second)
	for _, j := range runJobs(ctx, c, in.warmJobs, &next, 1, len(in.warmJobs), deadline, deadline) {
		if j.err != nil || j.view.State != "done" {
			return fmt.Errorf("warm-up job on %s: state %q, %v", j.spec.target, j.view.State, j.err)
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
