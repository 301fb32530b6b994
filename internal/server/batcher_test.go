package server

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
)

// stubDriver scores deterministically from a hash of the input, so tests
// can verify per-request result routing without training anything.
type stubDriver struct {
	name string
	thr  float64
}

func (d *stubDriver) Name() string { return d.name }

func (d *stubDriver) Score(raw []byte) float64 {
	h := fnv.New64a()
	h.Write([]byte(d.name)) // distinct engines disagree on the same bytes
	h.Write(raw)
	return float64(h.Sum64()%1000) / 1000
}

func (d *stubDriver) Label(raw []byte) bool { return d.Score(raw) >= d.thr }

func (d *stubDriver) ScoreBatch(raws [][]byte) []float64 {
	out := make([]float64, len(raws))
	for i, raw := range raws {
		out[i] = d.Score(raw)
	}
	return out
}

func (d *stubDriver) Threshold() float64 { return d.thr }
func (d *stubDriver) Version() string    { return "stub-v1" }
func (d *stubDriver) Health() error      { return nil }

// stubRegistry is the package's one way to put engines behind a registry:
// the given drivers, or the stub engines A and B when none are given.
func stubRegistry(t *testing.T, drivers ...engine.Driver) *engine.Registry {
	t.Helper()
	if len(drivers) == 0 {
		drivers = []engine.Driver{&stubDriver{name: "A", thr: 0.5}, &stubDriver{name: "B", thr: 0.2}}
	}
	reg, err := engine.NewRegistry(engineSet(t, drivers...))
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return reg
}

// testBatcher starts a dispatcher over a fixed set of drivers.
func testBatcher(t *testing.T, maxBatch, queue int, window time.Duration, m *Metrics, drivers ...engine.Driver) *Batcher {
	ms := newModelSet(engineSet(t, drivers...), true)
	return newBatcherSrc(func() *modelSet { return ms }, maxBatch, queue, window, m)
}

// gatedDriver wraps a driver so every batch flush parks until the test
// releases it — the lever that makes coalescing deterministic.
type gatedDriver struct {
	engine.Driver
	entered chan int      // receives each flush's batch size
	release chan struct{} // one receive per flush
}

func (g *gatedDriver) ScoreBatch(raws [][]byte) []float64 {
	g.entered <- len(raws)
	<-g.release
	return g.Driver.ScoreBatch(raws)
}

// convDriver builds a small untrained (random-weight) conv engine:
// deterministic scores through the real lookup-table batch path.
func convDriver(t *testing.T, name string, seed int64) *engine.ConvDriver {
	t.Helper()
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: 512, EmbedDim: 3, Kernel: 8, Stride: 4, Filters: 6, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewConvNet: %v", err)
	}
	d, err := engine.NewConvDriver(&detect.ConvDetector{ModelName: name, Net: net, Threshold: 0.5})
	if err != nil {
		t.Fatalf("NewConvDriver: %v", err)
	}
	return d
}

func randomRaws(seed int64, n, maxLen int) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	raws := make([][]byte, n)
	for i := range raws {
		raws[i] = make([]byte, 32+rng.Intn(maxLen))
		rng.Read(raws[i])
	}
	return raws
}

// TestBatcherParityWithDirectScore is the acceptance gate: scores and
// labels served through the micro-batching path are bit-identical to direct
// Driver.Score and Driver.Label calls on the same bytes. The set mixes real
// conv engines with stubs, the callers mix interactive scans with oracle
// queries on each engine in turn, and the engines of each flush score in
// parallel. An oracle query's result is checked on its target's column, the
// only one it fills.
func TestBatcherParityWithDirectScore(t *testing.T) {
	dets := []engine.Driver{
		convDriver(t, "MalConvA", 1),
		&stubDriver{name: "plain", thr: 0.7},
		convDriver(t, "MalConvB", 2),
		&stubDriver{name: "stub", thr: 0.3},
	}
	var m Metrics
	b := testBatcher(t, 8, 64, time.Millisecond, &m, dets...)
	defer b.Close()

	raws := randomRaws(3, 48, 400)
	outs := make([]scanOut, len(raws))
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := b.Score(context.Background(), raws[i])
			if i%3 == 0 {
				out, err = b.ScoreTarget(context.Background(), raws[i], dets[i%len(dets)].Name())
			}
			if err != nil {
				t.Errorf("Score(%d): %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i, raw := range raws {
		for di, d := range dets {
			if i%3 == 0 && di != i%len(dets) {
				continue
			}
			want := d.Score(raw)
			if got := outs[i].Scores[di]; got != want {
				t.Fatalf("sample %d model %s: batched score %v != direct %v", i, d.Name(), got, want)
			}
			if got, want := outs[i].Labels[di], d.Label(raw); got != want {
				t.Fatalf("sample %d model %s: batched label %v != direct %v", i, d.Name(), got, want)
			}
		}
	}
}

// TestBatcherInteractiveSkipsWindow: an interactive scan on an idle batcher
// flushes as soon as the queue is drained, alone, however long the window.
func TestBatcherInteractiveSkipsWindow(t *testing.T) {
	var m Metrics
	b := testBatcher(t, 8, 16, time.Hour, &m, &stubDriver{name: "stub", thr: 0.5})
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := b.Score(ctx, []byte("lone scan")); err != nil {
		t.Fatalf("lone Score with an hour window: %v", err)
	}
	if got := m.Batches.Load(); got != 1 {
		t.Fatalf("Batches = %d, want 1", got)
	}
	if got := m.BatchedRaws.Load(); got != 1 {
		t.Fatalf("BatchedRaws = %d, want 1", got)
	}
}

// TestBatcherOracleWaitsForWindow: a lone oracle query waits out the
// window, and the next interactive scan cuts the wait short and flushes
// with it as one batch of two.
func TestBatcherOracleWaitsForWindow(t *testing.T) {
	var m Metrics
	b := testBatcher(t, 8, 16, time.Hour, &m, &stubDriver{name: "stub", thr: 0.5})
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	oracleDone := make(chan error, 1)
	go func() {
		_, err := b.ScoreTarget(ctx, []byte("oracle query"), "stub")
		oracleDone <- err
	}()
	select {
	case err := <-oracleDone:
		t.Fatalf("lone ScoreTarget returned (%v) inside an hour window", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.Batches.Load(); got != 0 {
		t.Fatalf("Batches = %d while the oracle query waits, want 0", got)
	}

	if _, err := b.Score(ctx, []byte("interactive scan")); err != nil {
		t.Fatalf("Score: %v", err)
	}
	if err := <-oracleDone; err != nil {
		t.Fatalf("ScoreTarget: %v", err)
	}
	if got := m.Batches.Load(); got != 1 {
		t.Fatalf("Batches = %d, want 1", got)
	}
	if got := m.BatchedRaws.Load(); got != 2 {
		t.Fatalf("BatchedRaws = %d, want 2", got)
	}
}

// TestBatcherZeroWindowLoneRequest: with no window a lone request flushes
// once the queue is drained instead of blocking for a second arrival.
func TestBatcherZeroWindowLoneRequest(t *testing.T) {
	b := testBatcher(t, 8, 16, 0, nil, &stubDriver{name: "stub", thr: 0.5})
	defer b.Close()
	for _, target := range []string{"", "stub"} {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		var err error
		if target == "" {
			_, err = b.Score(ctx, []byte("lone"))
		} else {
			_, err = b.ScoreTarget(ctx, []byte("lone"), target)
		}
		cancel()
		if err != nil {
			t.Fatalf("lone request with a zero window: %v", err)
		}
	}
}

// TestBatcherCoalescesConcurrentScans pins the dispatcher's core behavior:
// requests arriving while a flush is in progress form the next batch, no
// response is lost or duplicated, and at least one coalesced batch with
// size > 1 is observed. Run under -race via `make race`.
func TestBatcherCoalescesConcurrentScans(t *testing.T) {
	inner := &stubDriver{name: "stub", thr: 0.5}
	gate := &gatedDriver{
		Driver:  inner,
		entered: make(chan int, 16),
		release: make(chan struct{}),
	}
	var m Metrics
	b := testBatcher(t, 32, 64, 5*time.Millisecond, &m, gate)
	defer b.Close()

	const extra = 15
	results := make(chan struct {
		i     int
		score float64
		err   error
	}, extra+1)
	submit := func(i int, raw []byte) {
		out, err := b.Score(context.Background(), raw)
		var score float64
		if err == nil {
			score = out.Scores[0]
		}
		results <- struct {
			i     int
			score float64
			err   error
		}{i, score, err}
	}
	raws := randomRaws(7, extra+1, 200)

	go submit(0, raws[0])
	if n := <-gate.entered; n != 1 {
		t.Fatalf("first flush batched %d requests, want 1", n)
	}
	// While flush #1 is parked, the rest queue up behind it.
	for i := 1; i <= extra; i++ {
		go submit(i, raws[i])
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < extra {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests queued", b.queued(), extra)
		}
		time.Sleep(time.Millisecond)
	}
	gate.release <- struct{}{} // flush #1 completes
	if n := <-gate.entered; n != extra {
		t.Fatalf("second flush batched %d requests, want %d", n, extra)
	}
	gate.release <- struct{}{} // flush #2 completes

	seen := make(map[int]bool)
	for k := 0; k < extra+1; k++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request %d failed: %v", r.i, r.err)
		}
		if seen[r.i] {
			t.Fatalf("request %d answered twice", r.i)
		}
		seen[r.i] = true
		if want := inner.Score(raws[r.i]); r.score != want {
			t.Fatalf("request %d got score %v, want %v (response misrouted)", r.i, r.score, want)
		}
	}
	if got := m.Batches.Load(); got != 2 {
		t.Fatalf("Batches = %d, want 2", got)
	}
	if got := m.Coalesced.Load(); got < 1 {
		t.Fatal("no coalesced batch (size > 1) observed")
	}
	if got := m.MaxBatchSize.Load(); got != extra {
		t.Fatalf("MaxBatchSize = %d, want %d", got, extra)
	}
}

// queued reports the submission-channel depth (test hook).
func (b *Batcher) queued() int { return len(b.reqs) }

func TestBatcherShedsWhenQueueFull(t *testing.T) {
	gate := &gatedDriver{
		Driver:  &stubDriver{name: "stub", thr: 0.5},
		entered: make(chan int, 8),
		release: make(chan struct{}),
	}
	b := testBatcher(t, 2, 2, time.Millisecond, nil, gate)
	done := make(chan error, 8)
	go func() {
		_, err := b.Score(context.Background(), []byte("first"))
		done <- err
	}()
	<-gate.entered // dispatcher busy; queue is free again
	for i := 0; i < 2; i++ {
		go func(i int) {
			_, err := b.Score(context.Background(), []byte(fmt.Sprintf("fill-%d", i)))
			done <- err
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := b.Score(context.Background(), []byte("overflow")); err != ErrOverloaded {
		t.Fatalf("full queue returned %v, want ErrOverloaded", err)
	}
	gate.release <- struct{}{}
	<-gate.entered
	gate.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}
	b.Close()
}

func TestBatcherScoreAfterCloseAndCtxCancel(t *testing.T) {
	inner := &stubDriver{name: "stub", thr: 0.5}
	b := testBatcher(t, 4, 8, time.Millisecond, nil, inner)
	if _, err := b.Score(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Score before close: %v", err)
	}
	if _, err := b.ScoreTarget(context.Background(), []byte("x"), ""); err != errNoTarget {
		t.Fatalf("ScoreTarget naming no engine returned %v, want errNoTarget", err)
	}
	b.Close()
	if _, err := b.Score(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("Score after close returned %v, want ErrClosed", err)
	}
	if _, err := b.ScoreTarget(context.Background(), []byte("x"), "stub"); err != ErrClosed {
		t.Fatalf("ScoreTarget after close returned %v, want ErrClosed", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b2 := testBatcher(t, 4, 8, time.Hour, nil, inner) // huge window
	defer b2.Close()
	go b2.Score(context.Background(), []byte("hold the window open"))
	if _, err := b2.ScoreTarget(ctx, []byte("y"), "stub"); err != context.Canceled {
		t.Fatalf("cancelled ScoreTarget returned %v, want context.Canceled", err)
	}
}

// TestScoreWaitCancelledMidBackpressure pins the prompt-cancellation half
// of the backpressure contract: a ScoreTarget caller parked on a full queue
// (the position an attack job's oracle query occupies under load) must
// observe its context's cancellation immediately, not after the queue
// frees up.
func TestScoreWaitCancelledMidBackpressure(t *testing.T) {
	gate := &gatedDriver{
		Driver:  &stubDriver{name: "stub", thr: 0.5},
		entered: make(chan int, 8),
		release: make(chan struct{}, 8),
	}
	b := testBatcher(t, 1, 1, time.Millisecond, nil, gate)
	defer b.Close()

	// Park the dispatcher inside a flush ...
	firstDone := make(chan error, 1)
	go func() {
		_, err := b.Score(context.Background(), []byte("first"))
		firstDone <- err
	}()
	<-gate.entered
	// ... and fill the queue behind it.
	secondDone := make(chan error, 1)
	go func() {
		_, err := b.Score(context.Background(), []byte("second"))
		secondDone <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// ScoreTarget now blocks on the send; cancelling must release it while the
	// queue is still full.
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := b.ScoreTarget(ctx, []byte("third"), "stub")
		waitErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the blocked send
	cancel()
	select {
	case err := <-waitErr:
		if err != context.Canceled {
			t.Fatalf("blocked ScoreTarget returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ScoreTarget ignored cancellation while parked on a full queue")
	}

	// Unwedge the dispatcher and confirm the legitimately queued work
	// still completes.
	gate.release <- struct{}{}
	<-gate.entered
	gate.release <- struct{}{}
	if err := <-firstDone; err != nil {
		t.Fatalf("first scan: %v", err)
	}
	if err := <-secondDone; err != nil {
		t.Fatalf("second scan: %v", err)
	}
}

// recordingDriver wraps a driver and records every sample it is asked to
// score, so a test can see which engines a flush called with what.
type recordingDriver struct {
	engine.Driver
	mu   sync.Mutex
	seen map[string]int
}

func (r *recordingDriver) ScoreBatch(raws [][]byte) []float64 {
	r.mu.Lock()
	if r.seen == nil {
		r.seen = map[string]int{}
	}
	for _, raw := range raws {
		r.seen[string(raw)]++
	}
	r.mu.Unlock()
	return r.Driver.ScoreBatch(raws)
}

func (r *recordingDriver) saw(raw []byte) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[string(raw)] > 0
}

// TestBatcherTargetScopedFlush forces one flush holding interactive scans
// plus oracle queries for two different targets (and one for an engine the
// set does not hold). Interactive results carry every engine's score and
// oracle results their target's, all bit-identical to Driver.Score; an
// engine that is not a query's target never receives its bytes, and
// engine_scores counts one score per engine per sample actually scored.
func TestBatcherTargetScopedFlush(t *testing.T) {
	rec := []*recordingDriver{
		{Driver: convDriver(t, "G", 1)},
		{Driver: &stubDriver{name: "A", thr: 0.5}},
		{Driver: convDriver(t, "B", 2)},
		{Driver: &stubDriver{name: "C", thr: 0.3}},
	}
	gate := &gatedDriver{Driver: rec[0], entered: make(chan int, 4), release: make(chan struct{})}
	var m Metrics
	b := testBatcher(t, 32, 64, time.Hour, &m, gate, rec[1], rec[2], rec[3])
	defer b.Close()

	first := make(chan error, 1)
	go func() {
		_, err := b.Score(context.Background(), []byte("first"))
		first <- err
	}()
	<-gate.entered // flush #1 parks; the rest queue up behind it

	raws := randomRaws(11, 6, 300)
	targets := []string{"", "A", "B", "", "A", "gone"}
	outs := make([]scanOut, len(raws))
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if targets[i] == "" {
				outs[i], err = b.Score(context.Background(), raws[i])
			} else {
				outs[i], err = b.ScoreTarget(context.Background(), raws[i], targets[i])
			}
			if err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.queued() < len(raws) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests queued", b.queued(), len(raws))
		}
		time.Sleep(time.Millisecond)
	}
	gate.release <- struct{}{}
	n := <-gate.entered
	gate.release <- struct{}{} // release before checking, so a failure cannot wedge Close
	if n != 2 {
		t.Fatalf("G scored %d samples in flush #2, want the 2 interactive scans", n)
	}
	wg.Wait()
	if err := <-first; err != nil {
		t.Fatal(err)
	}

	for i, raw := range raws {
		for di, r := range rec {
			needs := targets[i] == "" || targets[i] == r.Name()
			if got := r.saw(raw); got != needs {
				t.Fatalf("request %d (target %q): engine %s received it = %v, want %v", i, targets[i], r.Name(), got, needs)
			}
			if !needs {
				continue
			}
			if got, want := outs[i].Scores[di], r.Driver.Score(raw); got != want {
				t.Fatalf("request %d engine %s: score %v != direct %v", i, r.Name(), got, want)
			}
			if got, want := outs[i].Labels[di], r.Driver.Label(raw); got != want {
				t.Fatalf("request %d engine %s: label %v != direct %v", i, r.Name(), got, want)
			}
		}
	}
	if _, ok := outs[5].set.Index("gone"); ok {
		t.Fatal("a target the set does not hold resolved")
	}
	if got := m.Batches.Load(); got != 2 {
		t.Fatalf("Batches = %d, want 2", got)
	}
	// Flush #1: 1 scan × 4 engines. Flush #2: 2 scans × 4, plus one score
	// per resident oracle target.
	if got, want := m.EngineScores.Load(), int64(4+2*4+3); got != want {
		t.Fatalf("EngineScores = %d, want %d", got, want)
	}
}
