package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"time"

	"mpass/internal/corpus"
	"mpass/internal/nn"
)

// workload is one traffic mix. Each measures both user paths — scans and
// attack jobs — on its own serving configuration; the fields say where its
// emphasis lies. README.md records why each exists.
type workload struct {
	name string
	why  string

	// Serving configuration.
	replicas  int // mpassd replicas; >1 puts gateway.New in front
	quant     nn.QuantMode
	cacheSize int  // per-replica score-cache entries (0 = server default)
	tenants   bool // two-tenant allowlist in front of every metered endpoint

	// Scan traffic: open loop, Poisson arrivals.
	pool   int           // distinct scan inputs; 0 = every scan distinct
	zipf   float64       // >0 draws inputs Zipf(s) over the pool instead of uniformly
	large  int           // every large-th scan is a multi-MiB upload; 0 = none
	rate   float64       // nominal offered scans/s
	limit  time.Duration // latency limit a scan must meet on a ladder rung
	ladder []float64     // fixed rate ladder, ascending

	// Attack jobs: closed loop, two outstanding.
	convOnly bool // targets rotate over the conv engines only (quick jobs)

	// Shares of the measured seconds: nominal-rate scans, jobs, and the
	// ladder in what is left, interleaved over the run's rounds (run.go).
	// A concurrent workload runs its jobs for the whole run instead.
	nominalShare float64
	jobShare     float64
	concurrent   bool // jobs run alongside the scan phases
}

const (
	modelSeed   = 1  // fixed seed the resident models are trained from
	modelMal    = 60 // training corpus size, as mpassd trains by default
	modelBen    = 60
	maxQueries  = 100     // the daemon's default per-job query budget
	donorCount  = 64      // the daemon's default benign-donor pool
	outstanding = 2       // jobs kept in flight: the daemon's default attack workers
	largeBase   = 2 << 20 // multi-MiB upload size, above the gateway's buffer and the replica's stream threshold
	largeInputs = 4       // distinct multi-MiB uploads
	jobPool     = 1024    // distinct job samples; longer runs cycle through them
)

var workloads = []workload{
	{
		name:     "scan-hot",
		why:      "repeated samples behind a two-tenant allowlist: nearly every scan is a cache hit, so HTTP, admission, SHA-256, the LRU and JSON dominate",
		replicas: 1, tenants: true,
		pool: 256, rate: 3000, limit: 20 * time.Millisecond, ladder: geomLadder(2000, 1.08, 31),
		convOnly: true, nominalShare: 0.44, jobShare: 0.2,
	},
	{
		name:     "scan-cold",
		why:      "every scan a distinct sample: the batcher and all four engines in float mode do the work",
		replicas: 1,
		rate:     100, limit: 100 * time.Millisecond, ladder: geomLadder(50, 1.08, 31),
		convOnly: true, nominalShare: 0.44, jobShare: 0.2,
	},
	{
		name:     "attack-mix",
		why:      "attack jobs on all four engines at the default budget with cold scans alongside: core, gradients and the oracle loop dominate",
		replicas: 1,
		rate:     30, limit: 250 * time.Millisecond, ladder: geomLadder(15, 1.08, 31),
		nominalShare: 0.5, jobShare: 1, concurrent: true,
	},
	{
		name:     "gateway-zipf",
		why:      "Zipf scans through the gateway to 2 int32 replicas, with multi-MiB uploads: the ring, spool, extra hop, quant and streaming paths",
		replicas: 2, quant: nn.QuantInt32, cacheSize: 256,
		pool: 384, zipf: 1.1, large: 50, rate: 150, limit: 500 * time.Millisecond, ladder: geomLadder(100, 1.08, 31),
		convOnly: true, nominalShare: 0.44, jobShare: 0.2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scanInput is one generated upload and its digest.
type scanInput struct {
	raw []byte
	sum digest
}

// arrival is one scheduled scan: when it is due, relative to the phase
// start, and which input it sends.
type arrival struct {
	due   time.Duration
	input int
}

// jobSpec is one attack job: the malware sample and the target engine.
type jobSpec struct {
	input  scanInput
	target string
}

// inputs is everything a run sends, all derived from the workload seed.
// The program under test receives only these bytes.
type inputs struct {
	scans    []scanInput // the pool, or every distinct scan generated so far
	warm     []scanInput // set-up warm-up scans, disjoint from scans for cold pools
	jobs     []jobSpec
	warmJobs []jobSpec        // one quick job per conv engine, for set-up
	bySize   map[int64]digest // multi-MiB inputs by their unique length
	rng      *rand.Rand
	zipf     *rand.Zipf
	gen      *corpus.Generator
	seen     map[digest]bool
	picked   int // scans scheduled so far
}

// digestOf parses a hex SHA-256; a malformed string yields the zero digest.
func digestOf(s string) digest {
	var d digest
	hex.Decode(d[:], []byte(s))
	return d
}

// seedStream derives an independent generator seed per purpose, so adding
// draws for one purpose never shifts another's inputs.
func seedStream(seed int64, purpose int64) int64 { return seed*1_000_003 + purpose*7_919 }

// sample generates the next distinct corpus program, either family.
func (in *inputs) sample() scanInput {
	for {
		fam := corpus.Benign
		if in.rng.Intn(2) == 0 {
			fam = corpus.Malware
		}
		raw := in.gen.Sample(fam).Raw
		sum := sha256.Sum256(raw)
		if !in.seen[sum] {
			in.seen[sum] = true
			return scanInput{raw: raw, sum: sum}
		}
	}
}

// makeInputs generates a run's inputs. A workload without a pool gets its
// distinct scans generated as they are scheduled.
func makeInputs(w workload, seed int64, names []string) *inputs {
	in := &inputs{
		rng:    rand.New(rand.NewSource(seedStream(seed, 1))),
		gen:    corpus.NewGenerator(seedStream(seed, 2)),
		seen:   map[digest]bool{},
		bySize: map[int64]digest{},
	}
	in.scans = make([]scanInput, w.pool)
	for i := range in.scans {
		in.scans[i] = in.sample()
	}
	if w.zipf > 0 {
		in.zipf = rand.NewZipf(rand.New(rand.NewSource(seedStream(seed, 3))), w.zipf, 1, uint64(w.pool-1))
	}
	// Multi-MiB uploads: a corpus sample with a seeded overlay, each of a
	// distinct length so spooled hops can be told apart without hashing.
	if w.large > 0 {
		for i := 0; i < largeInputs; i++ {
			base := in.sample().raw
			raw := make([]byte, largeBase+i*4096)
			copy(raw, base)
			in.rng.Read(raw[len(base):])
			s := scanInput{raw: raw, sum: sha256.Sum256(raw)}
			in.scans = append(in.scans, s)
			in.bySize[int64(len(raw))] = s.sum
		}
	}
	// Warm-up inputs: the whole pool when there is one (set-up fills the
	// caches with it), else a separate distinct batch.
	if w.pool > 0 {
		in.warm = in.scans
	} else {
		in.warm = make([]scanInput, 64)
		for i := range in.warm {
			in.warm[i] = in.sample()
		}
	}
	// Jobs: malware samples, targets a seeded permutation per block so
	// every engine is attacked equally often.
	mgen := corpus.NewGenerator(seedStream(seed, 4))
	targets := names
	if w.convOnly {
		targets = nil
		for _, n := range names {
			if n != "LightGBM" {
				targets = append(targets, n)
			}
		}
	}
	for _, n := range names {
		if n != "LightGBM" {
			raw := mgen.Sample(corpus.Malware).Raw
			in.warmJobs = append(in.warmJobs, jobSpec{input: scanInput{raw: raw, sum: sha256.Sum256(raw)}, target: n})
		}
	}
	trng := rand.New(rand.NewSource(seedStream(seed, 5)))
	for len(in.jobs) < jobPool {
		for _, p := range trng.Perm(len(targets)) {
			raw := mgen.Sample(corpus.Malware).Raw
			in.jobs = append(in.jobs, jobSpec{input: scanInput{raw: raw, sum: sha256.Sum256(raw)}, target: targets[p]})
		}
	}
	return in
}

// release drops the bytes of distinct scans a finished phase sent, except
// the checked subset, which the checks score directly later.
func (in *inputs) release(w workload, obs []scanObs) {
	if w.pool > 0 {
		return
	}
	for _, o := range obs {
		if s := &in.scans[o.input]; !checkedInput(s.sum) {
			s.raw = nil
		}
	}
}

// pick chooses the input of the next scan. Multi-MiB uploads come at a
// fixed share, every w.large-th scan, so each run sends the same number.
func (in *inputs) pick(w workload) int {
	in.picked++
	if w.large > 0 && in.picked%w.large == 0 {
		return len(in.scans) - 1 - in.rng.Intn(largeInputs)
	}
	switch {
	case in.zipf != nil:
		return int(in.zipf.Uint64())
	case w.pool > 0:
		return in.rng.Intn(w.pool)
	}
	in.scans = append(in.scans, in.sample())
	return len(in.scans) - 1
}

// schedule lays out Poisson arrivals at rate over d.
func (in *inputs) schedule(w workload, rate float64, d time.Duration) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += in.rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, arrival{due: due, input: in.pick(w)})
	}
}
