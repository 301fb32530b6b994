// Command benchjson is the speedup gate behind `make quant-gate` and
// `make lint-bench`. It reads `go test -bench` text output on stdin and
// requires one benchmark to beat another by a minimum factor:
//
//	go test -run '^$' -bench 'PredictTable(Float|Quant32)$' ./internal/nn > bench.txt
//	go run ./cmd/benchjson -gate 'BenchmarkPredictTableFloat,BenchmarkPredictTableQuant32,1.3' < bench.txt
//
// Each benchmark line ("BenchmarkName-8  1814  1545457 ns/op  17120 B/op
// 8 allocs/op") contributes its ns/op, keyed by the benchmark name with the
// GOMAXPROCS suffix stripped. Non-benchmark lines pass through to stderr so
// failures stay visible. The gate writes nothing but its verdict.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// parseLine reads the name and ns/op of one "Benchmark..." output line; ok
// is false for any other line (headers, PASS, ok, failures).
func parseLine(line string) (name string, nsPerOp float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") || fields[3] != "ns/op" {
		return "", 0, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", 0, false
	}
	ns, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return "", 0, false
	}
	name = fields[0]
	// Strip the -GOMAXPROCS suffix go test appends.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name, ns, true
}

// checkGate enforces a speedup requirement of the form "BASE,NEW,MIN":
// nsPerOp must hold benchmarks BASE and NEW, and BASE's ns/op must be at
// least MIN times NEW's. It returns the achieved ratio.
func checkGate(nsPerOp map[string]float64, spec string) (float64, error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		return 0, fmt.Errorf("gate spec %q: want BASE,NEW,MIN", spec)
	}
	min, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil || min <= 0 {
		return 0, fmt.Errorf("gate spec %q: bad minimum speedup %q", spec, parts[2])
	}
	baseName, nextName := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	base, ok := nsPerOp[baseName]
	if !ok {
		return 0, fmt.Errorf("gate: benchmark %q not in input", baseName)
	}
	next, ok := nsPerOp[nextName]
	if !ok {
		return 0, fmt.Errorf("gate: benchmark %q not in input", nextName)
	}
	if next <= 0 {
		return 0, fmt.Errorf("gate: %s has non-positive ns/op", nextName)
	}
	ratio := base / next
	if ratio < min {
		return ratio, fmt.Errorf("gate: %s is %.2fx faster than %s, need >= %.2fx",
			nextName, ratio, baseName, min)
	}
	return ratio, nil
}

func main() {
	gate := flag.String("gate", "", "speedup gate 'BASE,NEW,MIN': require ns/op(BASE)/ns/op(NEW) >= MIN, exit 1 otherwise")
	flag.Parse()
	if *gate == "" {
		fmt.Fprintln(os.Stderr, "usage: benchjson -gate BASE,NEW,MIN < bench-output")
		os.Exit(2)
	}

	nsPerOp := map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if name, ns, ok := parseLine(line); ok {
			nsPerOp[name] = ns
		} else if s := strings.TrimSpace(line); s != "" {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	ratio, err := checkGate(nsPerOp, *gate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate %s ok (%.2fx)\n", *gate, ratio)
}
