// Command mpass-load is the repo's one load harness. It reads a scenario
// file (scenarios/*.json), boots the fleet the file declares — mpassd
// replicas, optionally behind mpass-gateway, executed from the directory
// mpass-load itself lives in — drives the file's phases against it, judges
// the run, and drains every process with SIGTERM:
//
//	go build -o bin/ ./cmd/mpassd ./cmd/mpass-gateway ./cmd/mpass-load
//	bin/mpass-load scenarios/serve-smoke.json
//
// A phase runs its actions (SIGHUP or SIGKILL a replica) and then its
// traffic streams concurrently; each stream is a client pool issuing a
// deterministic mix of scan / cachemiss / attack / stream requests under
// one tenant's key, and {"reload": N} actions swap the target's model
// generation N times from inside that traffic. Each phase measures its own
// /metrics delta, read from a replica or from a gateway's fleet document
// alike; a phase's thresholds judge it together with the phases after it
// that set none of their own.
//
// Exit status: 0 when every threshold and invariant held, 3 when any was
// violated (each is listed on stderr), 1 when the run could not be carried
// out at all. Besides the file's thresholds, every run checks that /metrics
// counted at least the scans, chunked uploads and bytes the runner had
// answered; that every 429 carried an integer Retry-After >= 1; that the
// (sha256, model_version) score audit held; that every scan response named
// a generation the fleet served and each /healthz agrees with its last
// swap; and that every process exited 0 after SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mpass-load: ")
	maxP99 := flag.Duration("scenario-max-p99", 0, "override the scenario's max_p99_ms threshold (0 keeps the file's value)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: mpass-load [-scenario-max-p99 D] scenario.json")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	sc, err := parseScenario(data)
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	if *maxP99 > 0 {
		ms := float64(*maxP99) / 1e6
		sc.Thresholds.MaxP99Ms = &ms
	}
	exe, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	// An interrupted run kills its fleet rather than orphaning it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	violations, err := run(ctx, sc, filepath.Dir(exe))
	if err != nil {
		log.Print(err)
		stop()
		os.Exit(1)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "VIOLATED: %s\n", v)
		}
		log.Printf("scenario %s failed %d check(s)", sc.Name, len(violations))
		stop()
		os.Exit(3)
	}
	fmt.Printf("scenario %s: all thresholds and invariants held\n", sc.Name)
}

// run boots the fleet, drives every phase, drains the fleet and returns the
// violated thresholds and invariants.
func run(ctx context.Context, sc *scenarioFile, binDir string) ([]string, error) {
	fl, err := startFleet(ctx, sc.Fleet, binDir)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	bases := make([]string, len(fl.replicas))
	for i, p := range fl.replicas {
		bases[i] = p.base
	}
	gw := ""
	if fl.gateway != nil {
		gw = fl.gateway.base
	}
	r := newRunner(sc, bases, gw)
	versions, err := fl.modelVersions()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for i, v := range versions {
		r.served[v] = true
		r.last[i] = v
	}
	r.mu.Unlock()

	var results []phaseResult
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := r.runPhase(ph, fl)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", ph.Name, err)
		}
		results = append(results, res)
	}
	v := judgeRun(sc, results)

	final, err := fl.modelVersions()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	v = append(v, auditVersions(r.served, r.seen, r.last, final)...)
	v = append(v, r.problems...)
	r.mu.Unlock()
	return append(v, fl.drain()...), nil
}

// runPhase runs one phase's actions and traffic and measures its /metrics
// delta on the target.
func (r *runner) runPhase(ph *phaseSpec, fl *fleet) (phaseResult, error) {
	res := phaseResult{Name: ph.Name, Pool: ph.pool}
	for _, a := range ph.actions {
		var err error
		switch a.kind {
		case "sighup":
			err = fl.sighup(a.arg)
		case "sigkill":
			err = fl.signal(a.arg, syscall.SIGKILL)
		}
		if err != nil {
			return res, err
		}
	}
	base := r.base(ph.target)
	pre, err := fetchMetrics(base)
	if err != nil {
		return res, err
	}
	start := time.Now()
	tallies, swaps := r.drive(ph)
	res.Elapsed, res.Swaps = time.Since(start), swaps
	post, err := quiesce(base)
	if err != nil {
		return res, err
	}
	res.Metrics = diffMetrics(pre, post)
	for si, st := range ph.Streams {
		res.Streams = append(res.Streams, streamResult{Tenant: st.Tenant, Noisy: st.Noisy, tally: tallies[si]})
	}
	report(&res, ph)
	return res, nil
}

// report prints one phase's outcome: per stream, then what /metrics saw.
func report(res *phaseResult, ph *phaseSpec) {
	fmt.Printf("phase %s → %s: %d requests in %v · %.0f req/s · %d reloads\n",
		res.Name, ph.target, res.requests(), res.Elapsed.Round(time.Millisecond),
		float64(res.requests())/res.Elapsed.Seconds(), res.Swaps)
	for _, s := range res.Streams {
		sort.Slice(s.Lat, func(i, j int) bool { return s.Lat[i] < s.Lat[j] })
		name := s.Tenant
		if name == "" {
			name = "(no key)"
		}
		if s.Noisy {
			name += " [noisy]"
		}
		fmt.Printf("  %s: %d ok, %d shed, %d failed · jobs %d done, %d failed · scan p50 %v p99 %v\n",
			name, s.OK, s.Shed, s.Failed, s.JobsDone, s.JobsLost,
			quantile(s.Lat, 0.5).Round(time.Microsecond), quantile(s.Lat, 0.99).Round(time.Microsecond))
	}
	m := res.Metrics
	fmt.Printf("  /metrics: %d scans (%d streamed, %d bytes) · %d hits / %d misses · %d batches · oracle %d queries, %d retries, %d breaker opens · %d jobs cancelled\n",
		m.ScanRequests, m.ScansStreamed, m.StreamedBytes, m.CacheHits, m.CacheMisses, m.Batches,
		m.OracleQueries, m.OracleRetries, m.OracleBreaks, m.JobsCancelled)
	if len(m.Replicas) > 1 {
		for _, rd := range m.Replicas {
			switch {
			case rd.Down:
				fmt.Printf("  replica %s: down\n", rd.Name)
			case rd.Unreachable:
				fmt.Printf("  replica %s: healthy but unreachable\n", rd.Name)
			default:
				fmt.Printf("  replica %s: %d hits / %d misses · hit ratio %.3f\n",
					rd.Name, rd.Hits, rd.Misses, rate(rd.Hits, rd.Hits+rd.Misses))
			}
		}
	}
}
