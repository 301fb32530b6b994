package main

import "testing"

func TestParseLine(t *testing.T) {
	name, ns, ok := parseLine("BenchmarkDetectorPredict-8   \t    1814\t   1545457 ns/op\t   17120 B/op\t       8 allocs/op")
	if !ok || name != "BenchmarkDetectorPredict" || ns != 1545457 {
		t.Fatalf("parsed %q %v %v", name, ns, ok)
	}

	// Sub-benchmark names keep their slash but lose only the trailing
	// -GOMAXPROCS.
	name, ns, ok = parseLine("BenchmarkTrainBatchParallel/workers=4-8  12  9000000 ns/op  1234.5 samples/sec")
	if !ok || name != "BenchmarkTrainBatchParallel/workers=4" || ns != 9000000 {
		t.Fatalf("parsed %q %v %v", name, ns, ok)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tmpass\t1.2s",
		"",
		"--- FAIL: TestX",
		"BenchmarkX-8  12  fast ns/op",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("non-benchmark line %q accepted", line)
		}
	}
}

func TestCheckGate(t *testing.T) {
	nsPerOp := map[string]float64{"BenchmarkFloat": 400, "BenchmarkQuant": 250}

	ratio, err := checkGate(nsPerOp, "BenchmarkFloat,BenchmarkQuant,1.3")
	if err != nil {
		t.Fatalf("gate should pass at 1.6x: %v", err)
	}
	if ratio != 1.6 {
		t.Fatalf("ratio = %v, want 1.6", ratio)
	}

	if _, err := checkGate(nsPerOp, "BenchmarkFloat,BenchmarkQuant,2.0"); err == nil {
		t.Fatal("gate passed below the required speedup")
	}
	if _, err := checkGate(nsPerOp, "BenchmarkFloat,BenchmarkMissing,1.1"); err == nil {
		t.Fatal("gate passed with a missing benchmark")
	}
	for _, bad := range []string{"", "a,b", "a,b,c,d", "a,b,zero", "a,b,-1"} {
		if _, err := checkGate(nsPerOp, bad); err == nil {
			t.Fatalf("malformed spec %q accepted", bad)
		}
	}
}
