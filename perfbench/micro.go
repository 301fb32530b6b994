package main

import (
	"math/rand"
	"time"

	"mpass/internal/features"
	"mpass/internal/pefile"
	"mpass/internal/recovery"
	"mpass/internal/sandbox"
)

// microRows times single public calls on the workload's own inputs: the
// stages a scan or an attack round runs below the engines. Each row is the
// median per-call time in µs over repeated passes. Scan rows use the
// warm-up inputs: the pool itself, or distinct samples drawn like the
// measured ones (whose bytes are released as the run goes).
func microRows(in *inputs) (map[string]float64, error) {
	scans := in.warm
	if len(scans) > 64 {
		scans = scans[:64]
	}
	var jobs [][]byte
	for _, j := range in.jobs[:32] {
		jobs = append(jobs, j.input.raw)
	}
	out := map[string]float64{}
	var err error
	timeRow := func(name string, items [][]byte, call func(raw []byte) error) {
		// At least three passes, more until 150 ms have gone by.
		var per []float64
		deadline := time.Now().Add(150 * time.Millisecond)
		for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
			for _, raw := range items {
				start := time.Now()
				if cerr := call(raw); cerr != nil && err == nil {
					err = cerr
				}
				per = append(per, float64(time.Since(start))/1e3)
			}
		}
		out[name] = median(per)
	}
	var raws [][]byte
	for _, s := range scans {
		raws = append(raws, s.raw)
	}
	timeRow("pefile.parse_us", raws, func(raw []byte) error {
		_, err := pefile.Parse(raw)
		return err
	})
	timeRow("features.extract_us", raws, func(raw []byte) error {
		features.Extract(raw)
		return nil
	})
	timeRow("sandbox.run_us", raws, func(raw []byte) error {
		_, err := sandbox.Run(raw)
		return err
	})
	// recovery.Build rewrites the file in place: each call gets a fresh
	// parse, and only the Build itself is timed.
	rng := rand.New(rand.NewSource(1))
	var per []float64
	for pass := 0; pass < 5; pass++ {
		for _, raw := range jobs {
			f, perr := pefile.Parse(raw)
			if perr != nil {
				return nil, perr
			}
			start := time.Now()
			_, berr := recovery.Build(f, recovery.Options{Shuffle: true, Rng: rng})
			per = append(per, float64(time.Since(start))/1e3)
			if berr != nil {
				return nil, berr
			}
		}
	}
	out["recovery.build_us"] = median(per)
	return out, err
}
