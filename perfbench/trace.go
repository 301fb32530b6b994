package main

// Tracing from outside the program: every span is recorded by a wrapper the
// benchmark puts around a public interface — an engine.Driver decorator, a
// detect.GradientModel and core.Oracle wrapper inside a traced
// server.AttackFunc, a gateway RoundTripper and an http.Handler around each
// replica. Spans stay in memory and are analysed when the run ends. Spans of
// one scan share the SHA-256 of its body; spans of one attack job share the
// SHA-256 of the submitted sample.

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
	"mpass/internal/nn"
	"mpass/internal/server"
)

type digest = [32]byte

// Span kinds.
const (
	spanEngine   = "engine"        // one driver's ScoreBatch; name carries the engine
	spanFlush    = "server.flush"  // one coalesced batch, first ScoreBatch start to last end
	spanHandle   = "server.handle" // one request inside a server's HTTP handler
	spanHop      = "gateway.hop"   // gateway -> replica round trip, body relayed
	spanAttack   = "attack.run"    // one AttackFunc call
	spanGradient = "attack.gradient"
	spanOracle   = "attack.oracle"
)

// span is one traced interval. ids lists the requests it served: one body
// digest for most spans, every coalesced body for a flush.
type span struct {
	kind  string
	name  string // engine name (engine spans), target (attack runs)
	ids   []digest
	seq   int64 // flush / hop sequence, links a hop to its replica handle span
	start time.Time
	mid   time.Time // hop: response headers received
	end   time.Time
	n     int // samples in a ScoreBatch
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
	seq   atomic.Int64
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops every span recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// flushTracker groups one replica's ScoreBatch calls into flushes. The
// batcher scores a flush by calling every driver in set order from its one
// dispatcher goroutine, so the first driver opens a flush and the last one
// closes it.
type flushTracker struct {
	rec  *recorder
	last int

	mu    sync.Mutex
	open  span
	valid bool
}

// tracedDriver decorates an engine.Driver with a span per ScoreBatch. It
// forwards Unwrap and DecisionThreshold, so the capability probes, the
// batcher's score-derived labels, streaming and quantization see the
// wrapped engine exactly as before.
type tracedDriver struct {
	engine.Driver
	ft  *flushTracker
	idx int
}

// Unwrap implements engine.Unwrapper.
func (d *tracedDriver) Unwrap() detect.Detector {
	if u, ok := d.Driver.(engine.Unwrapper); ok {
		return u.Unwrap()
	}
	return d.Driver
}

// DecisionThreshold implements detect.Thresholder.
func (d *tracedDriver) DecisionThreshold() float64 {
	if th, ok := d.Driver.(detect.Thresholder); ok {
		return th.DecisionThreshold()
	}
	return d.Driver.Threshold()
}

// ScoreBatch implements engine.Driver, recording the call.
func (d *tracedDriver) ScoreBatch(raws [][]byte) []float64 {
	ft := d.ft
	if d.idx == 0 {
		open := span{kind: spanFlush, start: time.Now(), n: len(raws),
			seq: ft.rec.seq.Add(1), ids: make([]digest, len(raws))}
		for i, r := range raws {
			open.ids[i] = sha256.Sum256(r)
		}
		ft.mu.Lock()
		ft.open, ft.valid = open, true
		ft.mu.Unlock()
	}
	start := time.Now()
	out := d.Driver.ScoreBatch(raws)
	end := time.Now()
	ft.mu.Lock()
	seq := ft.open.seq
	var closed span
	closing := d.idx == ft.last && ft.valid
	if closing {
		closed = ft.open
		closed.end = end
		ft.valid = false
	}
	ft.mu.Unlock()
	ft.rec.add(span{kind: spanEngine, name: d.Name(), seq: seq, start: start, end: end, n: len(raws)})
	if closing {
		ft.rec.add(closed)
	}
	return out
}

// traceSet decorates every driver of one replica's set.
func traceSet(set *engine.Set, rec *recorder) (*engine.Set, error) {
	ft := &flushTracker{rec: rec, last: set.Len() - 1}
	drivers := make([]engine.Driver, set.Len())
	for i, d := range set.Drivers() {
		drivers[i] = &tracedDriver{Driver: d, ft: ft, idx: i}
	}
	return engine.NewSet(drivers...)
}

// tracedGradient times every InputGradient call of a known model.
type tracedGradient struct {
	detect.GradientModel
	rec *recorder
	id  digest
}

func (g *tracedGradient) InputGradient(raw []byte, target float64) *nn.InputGrad {
	start := time.Now()
	ig := g.GradientModel.InputGradient(raw, target)
	g.rec.add(span{kind: spanGradient, name: g.Name(), ids: []digest{g.id}, start: start, end: time.Now()})
	return ig
}

// tracedOracle times every hard-label query of one job.
type tracedOracle struct {
	inner core.Oracle
	rec   *recorder
	id    digest
}

func (o *tracedOracle) Name() string              { return o.inner.Name() }
func (o *tracedOracle) UnwrapOracle() core.Oracle { return o.inner }
func (o *tracedOracle) Detected(raw []byte) bool  { return o.inner.Detected(raw) }
func (o *tracedOracle) DetectedContext(ctx context.Context, raw []byte) (bool, error) {
	start := time.Now()
	det, err := core.QueryOracle(ctx, o.inner, raw)
	o.rec.add(span{kind: spanOracle, ids: []digest{o.id}, start: start, end: time.Now()})
	return det, err
}

// tracedAttack is server.MPassAttack with the known models and the oracle
// wrapped in timing decorators. It builds the same attacker from the same
// configuration, so a traced job makes the same queries as an untraced one.
func tracedAttack(reg *engine.Registry, donors [][]byte, maxQueries int, rec *recorder) server.AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		id := sha256.Sum256(original)
		known := engine.GradientModels(reg.Current(), target.Name())
		if len(known) == 0 {
			return nil, fmt.Errorf("no gradient-capable known models resident for target %q", target.Name())
		}
		for i, g := range known {
			known[i] = &tracedGradient{GradientModel: g, rec: rec, id: id}
		}
		cfg := core.DefaultConfig(known, donors)
		if maxQueries > 0 {
			cfg.MaxQueries = maxQueries
		}
		cfg.Seed = seed
		attacker, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res, err := attacker.AttackContext(ctx, original, &tracedOracle{inner: oracle, rec: rec, id: id})
		s := span{kind: spanAttack, name: target.Name(), ids: []digest{id}, start: start, end: time.Now()}
		if res != nil {
			s.n = res.Rounds
		}
		rec.add(s)
		return res, err
	}
}

// hopHeader carries the hop sequence from the gateway transport to the
// replica handler, linking the two spans of one forwarded request.
const hopHeader = "X-Perfbench-Hop"

// traceHandler records a span per request a server handles.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		seq, _ := strconv.ParseInt(r.Header.Get(hopHeader), 10, 64)
		rec.add(span{kind: spanHandle, seq: seq, start: start, end: time.Now()})
	})
}

// hopTransport is the gateway's replica-facing RoundTripper in traced runs.
// It records each forwarded scan from the call until the relayed response
// body is closed. Small bodies are identified by hashing a replay of the
// request body; spooled multi-MiB bodies by their length, which the
// workload makes unique per large input.
type hopTransport struct {
	inner  http.RoundTripper
	rec    *recorder
	bySize map[int64]digest
}

func (t *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost {
		return t.inner.RoundTrip(req)
	}
	s := span{kind: spanHop, seq: t.rec.seq.Add(1), start: time.Now()}
	if id, ok := t.bySize[req.ContentLength]; ok {
		s.ids = []digest{id}
	} else if req.GetBody != nil {
		if body, err := req.GetBody(); err == nil {
			h := sha256.New()
			io.Copy(h, body)
			var id digest
			h.Sum(id[:0])
			s.ids = []digest{id}
		}
	}
	out := req.Clone(req.Context())
	out.Header.Set(hopHeader, strconv.FormatInt(s.seq, 10))
	resp, err := t.inner.RoundTrip(out)
	s.mid = time.Now()
	if err != nil {
		s.end = s.mid
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &hopBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

// hopBody closes a hop span when the gateway finishes relaying the body.
type hopBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *hopBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = time.Now()
		b.rec.add(b.s)
	})
	return err
}
