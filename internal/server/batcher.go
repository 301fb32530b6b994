package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"mpass/internal/parallel"
)

// Batcher is the micro-batching dispatcher: concurrent scan requests are
// coalesced into one ScoreBatch call per resident engine, so the
// lookup-table fast path's per-batch costs (table fetch, worker fan-out)
// amortize across requests instead of being paid once per HTTP call.
//
// A single dispatcher goroutine alternates between collecting a batch and
// flushing it. Collecting drains whatever is already queued without
// blocking. A batch holding an interactive scan (Score) then flushes at
// once; a batch of attack-oracle queries only (ScoreWait) keeps collecting
// until MaxBatch requests are in hand or Window has passed, and an
// interactive arrival cuts that window short. While a flush is scoring, new
// arrivals queue in the submission channel, which is what builds the next
// coalesced batch under load. The channel is bounded: when it is full, Score
// fails fast with ErrOverloaded and the HTTP layer sheds the request with a
// 429.
//
// A flush scores the set's engines concurrently, one worker per engine up
// to GOMAXPROCS. Scores are bit-identical to calling Driver.Score per
// sample: the dispatcher only regroups inputs, and the ScoreBatch
// implementations carry the repo-wide batch-equals-single parity guarantee.
type Batcher struct {
	// src resolves the model set to score with; the dispatcher loads it once
	// per flush, so every request coalesced into one batch is scored and
	// labeled by a single model generation even if a hot reload lands while
	// the batch is being collected.
	src     func() *modelSet
	max     int
	window  time.Duration
	metrics *Metrics

	mu     sync.RWMutex // guards closed vs. in-flight submissions
	closed bool         //mpass:guardedby mu
	reqs   chan *scanReq
	done   chan struct{} // dispatcher exited
}

// scanOut is one request's result: per-engine scores and hard labels, in
// set order, plus the model generation that produced them — response
// rendering and cache filing key on the set that actually scored, never on
// whatever is current by the time the result is consumed.
type scanOut struct {
	Scores []float64
	Labels []bool
	set    *modelSet
}

type scanReq struct {
	raw    []byte
	oracle bool         // submitted by ScoreWait: may wait out the window
	out    chan scanOut // buffered; the dispatcher never blocks on delivery
}

// Batcher errors surfaced to the HTTP layer.
var (
	ErrOverloaded = errors.New("server: scan queue full")
	ErrClosed     = errors.New("server: shutting down")
)

// newBatcherSrc starts the dispatcher over a model-set source. maxBatch and
// queue have sane minimums. window paces oracle-only batches; window <= 0
// flushes them, like interactive ones, as soon as the channel runs dry.
func newBatcherSrc(src func() *modelSet, maxBatch, queue int, window time.Duration, m *Metrics) *Batcher {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if queue < maxBatch {
		queue = maxBatch
	}
	b := &Batcher{
		src:     src,
		max:     maxBatch,
		window:  window,
		metrics: m,
		reqs:    make(chan *scanReq, queue),
		done:    make(chan struct{}),
	}
	go b.loop()
	return b
}

// Score submits raw for scoring and waits for the coalesced result. It
// fails fast with ErrOverloaded when the submission queue is full, ErrClosed
// after shutdown, or ctx's error when the caller's deadline expires first.
func (b *Batcher) Score(ctx context.Context, raw []byte) (scanOut, error) {
	req := &scanReq{raw: raw, out: make(chan scanOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return scanOut{}, ErrClosed
	}
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	default:
		b.mu.RUnlock()
		return scanOut{}, ErrOverloaded
	}
	select {
	case out := <-req.out:
		return out, nil
	case <-ctx.Done():
		// The dispatcher will still deliver into the buffered channel; the
		// result is simply dropped.
		return scanOut{}, ctx.Err()
	}
}

// ScoreWait is Score with backpressure instead of shedding: when the queue
// is full it blocks until there is room (or ctx expires). Resident attack
// jobs use it for their oracle queries — a job that has already been
// admitted should slow down under load, not lose a query mid-attack. A batch
// of these queries alone waits out the batch window, so oracle traffic
// coalesces and yields the CPU to interactive scans.
func (b *Batcher) ScoreWait(ctx context.Context, raw []byte) (scanOut, error) {
	req := &scanReq{raw: raw, oracle: true, out: make(chan scanOut, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return scanOut{}, ErrClosed
	}
	// Holding the read lock while blocked on the send is safe: Close waits
	// for the write lock, and the dispatcher keeps consuming until Close
	// actually closes the channel, so the send always completes.
	select {
	case b.reqs <- req:
		b.mu.RUnlock()
	case <-ctx.Done():
		b.mu.RUnlock()
		return scanOut{}, ctx.Err()
	}
	select {
	case out := <-req.out:
		return out, nil
	case <-ctx.Done():
		return scanOut{}, ctx.Err()
	}
}

// Close stops accepting requests, lets the dispatcher flush everything
// already queued, and waits for it to exit.
func (b *Batcher) Close() {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		close(b.reqs)
	}
	b.mu.Unlock()
	<-b.done
}

// loop is the dispatcher goroutine.
func (b *Batcher) loop() {
	defer close(b.done)
	batch := make([]*scanReq, 0, b.max)
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		b.flush(b.collect(append(batch[:0], first)))
	}
}

// collect fills batch behind its first request. It takes whatever is
// already queued without blocking; once the queue is dry, a batch holding an
// interactive scan is done. A batch of oracle queries only blocks for more
// until window has passed, and an interactive arrival ends that wait.
func (b *Batcher) collect(batch []*scanReq) []*scanReq {
	interactive := !batch[0].oracle
	var timer *time.Timer
	for len(batch) < b.max {
		var r *scanReq
		var open bool
		select {
		case r, open = <-b.reqs:
		default:
			if interactive || b.window <= 0 {
				return batch
			}
			if timer == nil {
				timer = time.NewTimer(b.window)
				defer timer.Stop()
			}
			select {
			case r, open = <-b.reqs:
			case <-timer.C:
				return batch
			}
		}
		if !open {
			return batch
		}
		batch = append(batch, r)
		interactive = interactive || !r.oracle
	}
	return batch
}

// flush scores one coalesced batch and fans results back out.
func (b *Batcher) flush(batch []*scanReq) {
	if b.metrics != nil {
		b.metrics.observeBatch(len(batch))
	}
	raws := make([][]byte, len(batch))
	for i, r := range batch {
		raws[i] = r.raw
	}
	// One snapshot per flush: every request in this batch gets scores and
	// labels from the same model generation.
	set := b.src()
	drivers := set.Drivers()
	outs := make([]scanOut, len(batch))
	for i := range outs {
		outs[i] = scanOut{
			Scores: make([]float64, len(drivers)),
			Labels: make([]bool, len(drivers)),
			set:    set,
		}
	}
	// Engines score concurrently; each worker writes only column di of
	// outs, and ForEach hands engines out in set order. A driver's label is
	// score >= Threshold() by the Driver contract, so labels cost no second
	// scoring pass.
	parallel.ForEach(0, len(drivers), func(di int) {
		d := drivers[di]
		scores := d.ScoreBatch(raws)
		thr := d.Threshold()
		for i := range batch {
			outs[i].Scores[di] = scores[i]
			outs[i].Labels[di] = scores[i] >= thr
		}
	})
	for i, r := range batch {
		// Each request's out channel is buffered (cap 1) and written exactly
		// once, so this delivery can never block the dispatcher — even when
		// the requester already gave up on its context.
		//lint:ignore boundedqueue buffered cap-1 result channel, single write
		r.out <- outs[i]
	}
}
