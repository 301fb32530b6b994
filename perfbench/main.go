// Command perfbench is the repository's benchmark. It hosts the real
// serving layers in-process through their public constructors —
// engine.LoadDir and engine.NewRegistry, server.New with
// server.MPassAttack, gateway.New — each on a loopback http.Server, drives
// them over HTTP from one load generator, checks every output, and prints
// the metrics by name with their units. See README.md for the workloads,
// the metrics and how each layer metric maps to an end-to-end one.
//
//	go run . --workload scan-cold --seed 1 --seconds 25 --trace 0
//	go run . --workload all --seed 1      # every workload, untraced then traced
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed: sample pools, arrival schedule, attack targets")
	seconds := flag.Float64("seconds", float64(spec().RunSeconds), "measured seconds per run")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	buildDir := flag.String("build-dir", ".bench_build", "directory for models, spool files and run scratch")
	trainInto := flag.String("train-into", "", "internal: train the resident models into this directory and exit")
	spec := flag.Bool("spec", false, "print the BENCHMARK.json the metric tables declare and exit")
	flag.Parse()

	if *trainInto != "" {
		if err := trainModels(*trainInto); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *spec {
		printSpec()
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	root, err := filepath.Abs(*buildDir)
	if err != nil {
		fatalf("%v", err)
	}
	modelDir, err := ensureModels(root)
	if err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(root, "run-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(work)

	ctx := context.Background()
	if *name == "all" {
		ok := runAll(ctx, *seed, *seconds, modelDir, work)
		os.RemoveAll(work)
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, found := workloadByName(*name)
	if !found {
		os.RemoveAll(work)
		fatalf("unknown workload %q", *name)
	}
	r, err := runWorkload(ctx, w, *seed, *seconds, *trace == 1, modelDir, work)
	if err != nil {
		os.RemoveAll(work)
		fatalf("%s: %v", w.name, err)
	}
	s := summarize(r)
	printReport(os.Stdout, r, s)
	line, _ := json.Marshal(map[string]any{
		"correct":   s.correct,
		"attempted": s.attempted,
		"failed":    s.failed,
		"metrics":   s.metrics,
	})
	fmt.Println(string(line))
	if !s.correct {
		os.RemoveAll(work)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload untraced, then traced, printing both reports
// and the tracing overhead. It reports whether every output was correct.
func runAll(ctx context.Context, seed int64, seconds float64, modelDir, work string) bool {
	fmt.Println(hostFingerprint())
	ok := true
	for _, w := range workloads {
		var sums [2]summary
		for t, traced := range []bool{false, true} {
			r, err := runWorkload(ctx, w, seed, seconds, traced, modelDir, work)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
				return false
			}
			sums[t] = summarize(r)
			printReport(os.Stdout, r, sums[t])
			ok = ok && sums[t].correct
		}
		fmt.Printf("%-14s tracing overhead: scan p50 %+.1f%%, job p50 %+.1f%%\n\n", w.name,
			overheadPct(sums[0].scanP50.Value, sums[1].scanP50.Value),
			overheadPct(sums[0].jobP50.Value, sums[1].jobP50.Value))
	}
	return ok
}

func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// hostFingerprint names what the figures were measured on.
func hostFingerprint() string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// The runner passes the commit, or a digest of the source tree when
	// the checkout is not a git repository.
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("host: cpu=%q nproc=%d GOMAXPROCS=%d go=%s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// benchSpec is the BENCHMARK.json document.
type benchSpec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specName   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []specLayer  `json:"per_layer"`
}

type specName struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// spec builds the BENCHMARK.json the workload and metric tables declare.
func spec() benchSpec {
	doc := benchSpec{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: 25,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, specName{w.name, w.why})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return doc
}

func printSpec() {
	out, _ := json.MarshalIndent(spec(), "", "  ")
	fmt.Println(string(out))
}

// printReport writes the human-readable report of one run.
func printReport(f *os.File, r *runOut, s summary) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(f, "== %s (%s) %s\n", r.w.name, mode, hostFingerprint())
	fmt.Fprintf(f, "   scans n=%d p50 %.3f ms, p%.2f %.3f ms (median of %d windows)   jobs n=%d p50 %.3f ms, p%.1f %.3f ms (median of %d windows)\n",
		s.scanP50.N, s.scanP50.Value, 100*s.scanP99.Q, s.scanP99.Value, s.scanWin,
		s.jobP50.N, s.jobP50.Value, 100*s.jobP90.Q, s.jobP90.Value, s.jobWin)
	for _, rs := range r.rungs {
		fmt.Fprintf(f, "   rung %8.1f/s  due %5d  on time %6.2f%%  backlog %4d  accepted=%v\n",
			rs.Rate, rs.Due, 100*rs.onTimeShare(), rs.BacklogAt, rs.accepted())
	}
	names := make([]string, 0, len(s.metrics))
	for k := range s.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "   %-32s %14.4f %s\n", k, s.metrics[k].Value, s.metrics[k].Unit)
	}
	for _, spec := range reportOnly {
		if m, ok := s.extra[spec.Name]; ok {
			fmt.Fprintf(f, "   %-32s %14.4f %s (reported, not gated)\n", spec.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(f, "   %-32s %14.4f ratio (%d of %d)\n", "failed_ratio", s.failedRatio, s.failed, s.attempted)
	if r.traced {
		u := int(s.metrics["trace.unreconciled"].Value)
		fmt.Fprintf(f, "   reconciled %d of %d traced requests within tolerance (%.2f%%)\n", s.traced-u, s.traced, 100*ratio(float64(s.traced-u), float64(s.traced)))
	}
	if r.traced && r.w.replicas > 1 {
		for _, row := range []struct {
			name string
			st   gwStages
		}{{"small", s.gwBreakdown.small}, {"multi-MiB", s.gwBreakdown.large}} {
			st := row.st
			fmt.Fprintf(f, "   gateway %-9s n=%-5d client %.3f ms = receive+hash+spool %.3f + hop %.3f (replica %.3f) + relay %.3f + rest %.3f\n",
				row.name, st.n, st.client, st.preHop, st.hop-st.relay, st.replica, st.relay, st.client-st.preHop-st.hop)
		}
	}
	for _, m := range s.mismatches {
		fmt.Fprintln(f, "   MISMATCH:", m)
	}
}
