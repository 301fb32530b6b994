package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"mpass/internal/engine"
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
// once; a batch of attack-oracle queries only (ScoreTarget) keeps collecting
// until MaxBatch requests are in hand or Window has passed, and an
// interactive arrival cuts that window short. While a flush is scoring, new
// arrivals queue in the submission channel, which is what builds the next
// coalesced batch under load. The channel is bounded: when it is full, Score
// fails fast with ErrOverloaded and the HTTP layer sheds the request with a
// 429.
//
// A flush scores the set's engines concurrently, one worker per engine up
// to GOMAXPROCS. An interactive scan needs every engine; an attack-oracle
// query (ScoreTarget) needs only the engine under attack, so each engine is
// handed just the requests that need it and an engine no request needs is
// not called. Scores are bit-identical to calling Driver.Score per sample:
// the dispatcher only regroups inputs, and the ScoreBatch implementations
// carry the repo-wide batch-equals-single parity guarantee.
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
// whatever is current by the time the result is consumed. A request scoped
// to one engine gets only that engine's column filled.
type scanOut struct {
	Scores []float64
	Labels []bool
	set    *modelSet
}

type scanReq struct {
	raw []byte
	// target names the one engine an oracle query needs, resolved in the
	// generation the flush pins; "" is an interactive scan, which needs
	// every engine.
	target string
	out    chan scanOut // buffered; the dispatcher never blocks on delivery
}

// Batcher errors surfaced to the HTTP layer.
var (
	ErrOverloaded = errors.New("server: scan queue full")
	ErrClosed     = errors.New("server: shutting down")
)

// errNoTarget rejects an oracle query that names no engine: an interactive
// scan goes through Score, which sheds instead of waiting.
var errNoTarget = errors.New("server: oracle query names no engine")

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

// ScoreTarget is Score with backpressure instead of shedding, scoring only
// the named engine, which must not be "" (errNoTarget): when the queue is
// full it blocks until there is room (or ctx expires). Resident attack jobs
// use it for their oracle queries — a job that has already been admitted should
// slow down under load, not lose a query mid-attack, and a hard-label query
// reads one engine's label, so it pays for that engine alone. A batch of
// these queries alone waits out the batch window, so oracle traffic
// coalesces and yields the CPU to interactive scans.
func (b *Batcher) ScoreTarget(ctx context.Context, raw []byte, target string) (scanOut, error) {
	if target == "" {
		return scanOut{}, errNoTarget
	}
	req := &scanReq{raw: raw, target: target, out: make(chan scanOut, 1)}
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
	interactive := batch[0].target == ""
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
		interactive = interactive || r.target == ""
	}
	return batch
}

// flush scores one coalesced batch and fans results back out.
func (b *Batcher) flush(batch []*scanReq) {
	raws := make([][]byte, len(batch))
	scoped := false
	for i, r := range batch {
		raws[i] = r.raw
		scoped = scoped || r.target != ""
	}
	// One snapshot per flush: every request in this batch gets scores and
	// labels from the same model generation.
	set := b.src()
	drivers := set.Drivers()
	var cols []column
	scored := len(batch) * len(drivers)
	if scoped {
		cols, scored = splitColumns(set, batch, raws)
	}
	if b.metrics != nil {
		b.metrics.observeBatch(len(batch), scored)
	}
	outs := make([]scanOut, len(batch))
	for i := range outs {
		outs[i] = scanOut{
			Scores: make([]float64, len(drivers)),
			Labels: make([]bool, len(drivers)),
			set:    set,
		}
	}
	// Engines score concurrently; each worker writes only its engine's
	// column of outs, and ForEach hands engines out in set order.
	if scoped {
		parallel.ForEach(0, len(cols), func(k int) {
			c := cols[k]
			scoreColumn(drivers[c.engine], c.engine, c.raws, c.rows, outs)
		})
	} else {
		parallel.ForEach(0, len(drivers), func(di int) {
			scoreColumn(drivers[di], di, raws, nil, outs)
		})
	}
	for i, r := range batch {
		// Each request's out channel is buffered (cap 1) and written exactly
		// once, so this delivery can never block the dispatcher — even when
		// the requester already gave up on its context.
		//lint:ignore boundedqueue buffered cap-1 result channel, single write
		r.out <- outs[i]
	}
}

// column is one engine's share of a flush that holds engine-scoped
// requests: the batch rows it scores and their bytes.
type column struct {
	engine int
	rows   []int
	raws   [][]byte
}

// splitColumns gives each engine of set the requests that need it — every
// request without a target, plus those naming that engine — and reports
// how many samples the flush scores summed over engines. Engines no request
// needs are left out, and so is a request whose target the set no longer
// holds: its result carries no score, and the caller's by-name lookup
// against the set fails.
func splitColumns(set *modelSet, batch []*scanReq, raws [][]byte) ([]column, int) {
	byEngine := make([]column, set.Len())
	scored := 0
	add := func(di, i int) {
		byEngine[di].rows = append(byEngine[di].rows, i)
		byEngine[di].raws = append(byEngine[di].raws, raws[i])
		scored++
	}
	for i, r := range batch {
		if r.target == "" {
			for di := range byEngine {
				add(di, i)
			}
		} else if di, ok := set.Index(r.target); ok {
			add(di, i)
		}
	}
	cols := byEngine[:0]
	for di, c := range byEngine {
		if len(c.rows) > 0 {
			c.engine = di
			cols = append(cols, c)
		}
	}
	return cols, scored
}

// scoreColumn scores raws on engine di, d, and writes column di of outs:
// row rows[k] for raws[k], or row k when rows is nil. A driver's label is
// score >= Threshold() by the Driver contract, so labels cost no second
// scoring pass.
func scoreColumn(d engine.Driver, di int, raws [][]byte, rows []int, outs []scanOut) {
	scores := d.ScoreBatch(raws)
	thr := d.Threshold()
	for k := range raws {
		i := k
		if rows != nil {
			i = rows[k]
		}
		outs[i].Scores[di] = scores[k]
		outs[i].Labels[di] = scores[k] >= thr
	}
}
