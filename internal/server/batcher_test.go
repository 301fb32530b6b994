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
	"mpass/internal/nn"
)

// stubDetector scores deterministically from a hash of the input, so tests
// can verify per-request result routing without training anything.
type stubDetector struct {
	name string
	thr  float64
}

func (d *stubDetector) Name() string { return d.name }

func (d *stubDetector) Score(raw []byte) float64 {
	h := fnv.New64a()
	h.Write([]byte(d.name)) // distinct detectors disagree on the same bytes
	h.Write(raw)
	return float64(h.Sum64()%1000) / 1000
}

func (d *stubDetector) Label(raw []byte) bool { return d.Score(raw) >= d.thr }

func (d *stubDetector) DecisionThreshold() float64 { return d.thr }

// gatedDetector wraps a detector so every batch flush parks until the test
// releases it — the lever that makes coalescing deterministic.
type gatedDetector struct {
	detect.Detector
	entered chan int      // receives each flush's batch size
	release chan struct{} // one receive per flush
}

func (g *gatedDetector) ScoreBatch(raws [][]byte) []float64 {
	g.entered <- len(raws)
	<-g.release
	return detect.ScoreAll(g.Detector, raws, 1)
}

// convDetector builds a small untrained (random-weight) ConvDetector:
// deterministic scores through the real lookup-table batch path.
func convDetector(t *testing.T, name string, seed int64) *detect.ConvDetector {
	t.Helper()
	net, err := nn.NewConvNet(nn.ConvConfig{
		SeqLen: 512, EmbedDim: 3, Kernel: 8, Stride: 4, Filters: 6, Seed: seed,
	})
	if err != nil {
		t.Fatalf("NewConvNet: %v", err)
	}
	return &detect.ConvDetector{ModelName: name, Net: net, Threshold: 0.5}
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

// plainDetector has a hard label that is not score >= threshold and no
// DecisionThreshold, so the dispatcher must label it with LabelAll rather
// than derive labels from scores.
type plainDetector struct{ inner stubDetector }

func (d *plainDetector) Name() string { return "plain" }

func (d *plainDetector) Score(raw []byte) float64 { return d.inner.Score(raw) }

func (d *plainDetector) Label(raw []byte) bool { return len(raw)%2 == 0 }

// TestBatcherParityWithDirectScore is the acceptance gate: scores served
// through the micro-batching path are bit-identical to direct
// Detector.Score calls on the same bytes. The set mixes Thresholder and
// non-Thresholder detectors, the callers mix interactive and oracle
// submissions, and the detectors of each flush score in parallel.
func TestBatcherParityWithDirectScore(t *testing.T) {
	dets := []detect.Detector{
		convDetector(t, "MalConvA", 1),
		&plainDetector{stubDetector{name: "plain"}},
		convDetector(t, "MalConvB", 2),
		&stubDetector{name: "stub", thr: 0.3},
	}
	var m Metrics
	b := newBatcher(dets, 8, 64, time.Millisecond, &m)
	defer b.Close()

	raws := randomRaws(3, 48, 400)
	outs := make([]scanOut, len(raws))
	var wg sync.WaitGroup
	for i := range raws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			score := b.Score
			if i%3 == 0 {
				score = b.ScoreWait
			}
			out, err := score(context.Background(), raws[i])
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
	b := newBatcher([]detect.Detector{&stubDetector{name: "stub", thr: 0.5}}, 8, 16, time.Hour, &m)
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
	b := newBatcher([]detect.Detector{&stubDetector{name: "stub", thr: 0.5}}, 8, 16, time.Hour, &m)
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	oracleDone := make(chan error, 1)
	go func() {
		_, err := b.ScoreWait(ctx, []byte("oracle query"))
		oracleDone <- err
	}()
	select {
	case err := <-oracleDone:
		t.Fatalf("lone ScoreWait returned (%v) inside an hour window", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := m.Batches.Load(); got != 0 {
		t.Fatalf("Batches = %d while the oracle query waits, want 0", got)
	}

	if _, err := b.Score(ctx, []byte("interactive scan")); err != nil {
		t.Fatalf("Score: %v", err)
	}
	if err := <-oracleDone; err != nil {
		t.Fatalf("ScoreWait: %v", err)
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
	dets := []detect.Detector{&stubDetector{name: "stub", thr: 0.5}}
	b := newBatcher(dets, 8, 16, 0, nil)
	defer b.Close()
	for _, score := range []func(context.Context, []byte) (scanOut, error){b.Score, b.ScoreWait} {
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		_, err := score(ctx, []byte("lone"))
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
	inner := &stubDetector{name: "stub", thr: 0.5}
	gate := &gatedDetector{
		Detector: inner,
		entered:  make(chan int, 16),
		release:  make(chan struct{}),
	}
	var m Metrics
	b := newBatcher([]detect.Detector{gate}, 32, 64, 5*time.Millisecond, &m)
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
	inner := &stubDetector{name: "stub", thr: 0.5}
	gate := &gatedDetector{
		Detector: inner,
		entered:  make(chan int, 8),
		release:  make(chan struct{}),
	}
	b := newBatcher([]detect.Detector{gate}, 2, 2, time.Millisecond, nil)
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
	inner := &stubDetector{name: "stub", thr: 0.5}
	b := newBatcher([]detect.Detector{inner}, 4, 8, time.Millisecond, nil)
	if _, err := b.Score(context.Background(), []byte("x")); err != nil {
		t.Fatalf("Score before close: %v", err)
	}
	b.Close()
	if _, err := b.Score(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("Score after close returned %v, want ErrClosed", err)
	}
	if _, err := b.ScoreWait(context.Background(), []byte("x")); err != ErrClosed {
		t.Fatalf("ScoreWait after close returned %v, want ErrClosed", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b2 := newBatcher([]detect.Detector{inner}, 4, 8, time.Hour, nil) // huge window
	defer b2.Close()
	go b2.Score(context.Background(), []byte("hold the window open"))
	if _, err := b2.ScoreWait(ctx, []byte("y")); err != context.Canceled {
		t.Fatalf("cancelled ScoreWait returned %v, want context.Canceled", err)
	}
}

// TestScoreWaitCancelledMidBackpressure pins the prompt-cancellation half
// of the backpressure contract: a ScoreWait caller parked on a full queue
// (the position an attack job's oracle query occupies under load) must
// observe its context's cancellation immediately, not after the queue
// frees up.
func TestScoreWaitCancelledMidBackpressure(t *testing.T) {
	gate := &gatedDetector{
		Detector: &stubDetector{name: "stub", thr: 0.5},
		entered:  make(chan int, 8),
		release:  make(chan struct{}, 8),
	}
	b := newBatcher([]detect.Detector{gate}, 1, 1, time.Millisecond, nil)
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

	// ScoreWait now blocks on the send; cancelling must release it while the
	// queue is still full.
	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := b.ScoreWait(ctx, []byte("third"))
		waitErr <- err
	}()
	time.Sleep(5 * time.Millisecond) // let it reach the blocked send
	cancel()
	select {
	case err := <-waitErr:
		if err != context.Canceled {
			t.Fatalf("blocked ScoreWait returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ScoreWait ignored cancellation while parked on a full queue")
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
