package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/faultinject"
)

// --- registry bounds ---------------------------------------------------

// TestJobRegistryBoundedUnderChurn is the memory-leak regression gate: 10k
// jobs through a capped registry must leave its steady-state size at the
// cap, with the overflow accounted for in the eviction counter.
func TestJobRegistryBoundedUnderChurn(t *testing.T) {
	const (
		churn = 10_000
		cap   = 128
	)
	var m Metrics
	r := newJobRegistry(4, 64, 0, time.Hour, cap, time.Second, &m)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.shutdown(ctx)
	})

	for i := 0; i < churn; i++ {
		for {
			_, err := r.submit("A", "", "", func(ctx context.Context, h *jobHandle) {
				h.finish([]byte("orig"), &core.Result{Success: false}, nil, "")
			})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrOverloaded) {
				t.Fatalf("job %d: submit: %v", i, err)
			}
			time.Sleep(100 * time.Microsecond) // pool queue full; let it drain
		}
		if n := r.size(); n > cap {
			t.Fatalf("after %d submissions the registry holds %d jobs, cap %d", i+1, n, cap)
		}
	}

	if n := r.size(); n > cap {
		t.Fatalf("steady-state registry size %d exceeds cap %d", n, cap)
	}
	evicted := m.JobsEvicted.Load()
	if evicted < churn-int64(cap) {
		t.Fatalf("JobsEvicted = %d, want >= %d", evicted, churn-cap)
	}
}

// TestJobRegistryShedsWhenAllLive pins the second admission bound: a
// registry whose cap is consumed entirely by live jobs rejects new submits
// instead of evicting running work.
func TestJobRegistryShedsWhenAllLive(t *testing.T) {
	var m Metrics
	r := newJobRegistry(1, 8, 0, time.Hour, 2, time.Second, &m)
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.shutdown(ctx)
	})

	block := func(ctx context.Context, h *jobHandle) {
		<-release
		h.finish(nil, &core.Result{}, nil, "")
	}
	for i := 0; i < 2; i++ {
		if _, err := r.submit("A", "", "", block); err != nil {
			t.Fatalf("live job %d: %v", i, err)
		}
	}
	if _, err := r.submit("A", "", "", block); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over a registry full of live jobs returned %v, want ErrOverloaded", err)
	}
	if m.JobsEvicted.Load() != 0 {
		t.Fatal("live jobs were evicted to make room")
	}
}

// TestJobRegistryTTLExpiresFinishedJobs verifies time-based retention: a
// finished job older than the TTL disappears on the next registry touch.
func TestJobRegistryTTLExpiresFinishedJobs(t *testing.T) {
	var m Metrics
	r := newJobRegistry(1, 8, 0, 20*time.Millisecond, 0, time.Second, &m)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.shutdown(ctx)
	})

	done := make(chan struct{})
	id, err := r.submit("A", "", "", func(ctx context.Context, h *jobHandle) {
		h.finish(nil, &core.Result{}, nil, "")
		close(done)
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-done
	if _, ok := r.view(id, false); !ok {
		t.Fatal("freshly finished job already gone")
	}
	time.Sleep(30 * time.Millisecond)
	if _, ok := r.view(id, false); ok {
		t.Fatal("finished job survived past its TTL")
	}
	if m.JobsEvicted.Load() != 1 {
		t.Fatalf("JobsEvicted = %d, want 1", m.JobsEvicted.Load())
	}
}

// --- JobView JSON contract ---------------------------------------------

// TestJobViewTerminalJSONIsExplicit pins the omitempty fix: terminal states
// must serialize success/queries/rounds even at their zero values, while
// non-terminal states omit them (the outcome does not exist yet).
func TestJobViewTerminalJSONIsExplicit(t *testing.T) {
	var m Metrics
	r := newJobRegistry(1, 8, 0, time.Hour, 0, time.Second, &m)
	release := make(chan struct{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.shutdown(ctx)
	})

	done := make(chan struct{})
	failedID, err := r.submit("A", "", "", func(ctx context.Context, h *jobHandle) {
		h.finish([]byte("orig"), &core.Result{Success: false, Queries: 0, Rounds: 0}, nil, "")
		close(done)
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-done
	queuedID, err := r.submit("A", "", "", func(ctx context.Context, h *jobHandle) {
		<-release
		h.finish(nil, &core.Result{}, nil, "")
	})
	if err != nil {
		t.Fatalf("submit queued: %v", err)
	}

	v, ok := r.view(failedID, false)
	if !ok {
		t.Fatal("finished job vanished")
	}
	raw, _ := json.Marshal(v)
	for _, want := range []string{`"success":false`, `"queries":0`, `"rounds":0`} {
		if !strings.Contains(string(raw), want) {
			t.Fatalf("terminal JobView %s omits %s", raw, want)
		}
	}

	// The worker is parked on the queued job by now or soon; the view of a
	// non-terminal job must not claim an outcome either way.
	qv, ok := r.view(queuedID, false)
	if !ok {
		t.Fatal("queued job vanished")
	}
	qraw, _ := json.Marshal(qv)
	for _, banned := range []string{`"success"`, `"queries"`, `"rounds"`} {
		if strings.Contains(string(qraw), banned) {
			t.Fatalf("non-terminal JobView %s claims an outcome (%s)", qraw, banned)
		}
	}
	close(release)
}

// --- deadlines and shutdown under fault --------------------------------

// loopingAttack queries the oracle until it errors — the shape of a real
// attack's inner loop, honoring cancellation through the oracle path.
func loopingAttack(maxQueries int) AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		res := &core.Result{}
		for i := 0; i < maxQueries; i++ {
			res.Queries++
			if _, err := core.QueryOracle(ctx, oracle, append(original, byte(i))); err != nil {
				return res, err
			}
		}
		res.Success = true
		res.AE = original
		return res, nil
	}
}

// pollTerminal polls a job until it leaves the queued/running states.
func pollTerminal(t *testing.T, url string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var v JobView
	for {
		getJSON(t, url, &v)
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobDeadlineFailsHangingOracleJob is the per-job half of the
// acceptance gate: with a 100%-hang oracle, the configured job deadline
// cancels the attack and the job records a terminal failed state.
func TestJobDeadlineFailsHangingOracleJob(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Attack:      loopingAttack(1 << 20),
		JobDeadline: 150 * time.Millisecond,
		OracleWrap: func(inner core.Oracle) core.Oracle {
			return faultinject.Wrap(inner, faultinject.Config{Seed: 1, HangRate: 1})
		},
	})

	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d: %s", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	v := pollTerminal(t, ts.URL+ar.Poll)
	if v.State != JobFailed {
		t.Fatalf("hanging-oracle job finished %q, want failed", v.State)
	}
	if v.Success == nil || *v.Success {
		t.Fatalf("failed job success = %v, want explicit false", v.Success)
	}
	if !strings.Contains(v.Error, "deadline") {
		t.Fatalf("job error %q does not mention the deadline", v.Error)
	}
	if got := s.metrics.JobsCancelled.Load(); got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", got)
	}
}

// TestShutdownUnderHangingOracleBoundedByJobDeadline is the drain half of
// the acceptance gate: with every oracle query hanging, Shutdown still
// completes within (roughly) the configured job deadline, because the
// deadline cancels the wedged query and the job fails over to a terminal
// state the drain can observe.
func TestShutdownUnderHangingOracleBoundedByJobDeadline(t *testing.T) {
	const jobDeadline = 200 * time.Millisecond
	s, ts := newTestServer(t, Config{
		Attack:      loopingAttack(1 << 20),
		JobDeadline: jobDeadline,
		OracleWrap: func(inner core.Oracle) core.Oracle {
			return faultinject.Wrap(inner, faultinject.Config{Seed: 7, HangRate: 1})
		},
	})

	resp, _ := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d", resp.StatusCode)
	}

	begin := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under a hanging oracle: %v", err)
	}
	if elapsed := time.Since(begin); elapsed > 10*jobDeadline {
		t.Fatalf("shutdown took %v with a %v job deadline", elapsed, jobDeadline)
	}
}

// TestShutdownCancelReapsCtxHonoringJob exercises the forced-shutdown
// lever with no job deadline at all: when the drain deadline expires, the
// pool-wide cancel must reach a hang parked inside the oracle, and the job
// records itself failed within the grace window, so Shutdown returns nil.
func TestShutdownCancelReapsCtxHonoringJob(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Attack:      loopingAttack(1 << 20),
		JobDeadline: -1, // disabled: cancellation is the only way out
		DrainGrace:  2 * time.Second,
		OracleWrap: func(inner core.Oracle) core.Oracle {
			return faultinject.Wrap(inner, faultinject.Config{Seed: 7, HangRate: 1})
		},
	})

	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d", resp.StatusCode)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v (cancelled stragglers should drain within grace)", err)
	}
	v, ok := s.jobs.view(ar.ID, false)
	if !ok || v.State != JobFailed {
		t.Fatalf("cancelled job state = %+v (found %v), want failed", v, ok)
	}
	if got := s.metrics.JobsCancelled.Load(); got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", got)
	}
}

// --- oracle retry and circuit breaker ----------------------------------

var errTransient = errors.New("transient oracle blip")

// transientOracle fails the first attempt of every logical query and
// answers on the retry — the retry layer should mask it completely.
type transientOracle struct {
	inner core.Oracle
	calls atomic.Int64
}

func (o *transientOracle) Name() string             { return o.inner.Name() }
func (o *transientOracle) Detected(raw []byte) bool { return o.inner.Detected(raw) }
func (o *transientOracle) DetectedContext(ctx context.Context, raw []byte) (bool, error) {
	if o.calls.Add(1)%2 == 1 {
		return false, errTransient
	}
	return core.QueryOracle(ctx, o.inner, raw)
}

func TestOracleRetryMasksTransientErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Attack:        loopingAttack(4),
		OracleBackoff: time.Millisecond,
		OracleWrap: func(inner core.Oracle) core.Oracle {
			return &transientOracle{inner: inner}
		},
	})

	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d: %s", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	v := pollTerminal(t, ts.URL+ar.Poll)
	if v.State != JobDone {
		t.Fatalf("job finished %q (err %q); retries should have masked every blip", v.State, v.Error)
	}
	if got := s.metrics.OracleRetries.Load(); got != 4 {
		t.Fatalf("OracleRetries = %d, want 4 (one per logical query)", got)
	}
	if got := s.metrics.OracleBreaks.Load(); got != 0 {
		t.Fatalf("OracleBreaks = %d, want 0", got)
	}
}

// deadOracle fails every query — the breaker's trigger.
type deadOracle struct{ inner core.Oracle }

func (o *deadOracle) Name() string             { return o.inner.Name() }
func (o *deadOracle) Detected(raw []byte) bool { return true }
func (o *deadOracle) DetectedContext(context.Context, []byte) (bool, error) {
	return false, errTransient
}

func TestOracleCircuitBreakerFailsJobFast(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Attack:           loopingAttack(1 << 20),
		OracleAttempts:   2,
		OracleBackoff:    time.Millisecond,
		OracleBreakAfter: 3,
		OracleWrap: func(inner core.Oracle) core.Oracle {
			return &deadOracle{inner: inner}
		},
	})

	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("victim"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d: %s", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	v := pollTerminal(t, ts.URL+ar.Poll)
	if v.State != JobFailed {
		t.Fatalf("job against a dead oracle finished %q", v.State)
	}
	if !strings.Contains(v.Error, "circuit open") {
		t.Fatalf("job error %q does not mention the open circuit", v.Error)
	}
	if v.Queries == nil || *v.Queries != 3 {
		t.Fatalf("job burned %v queries, want exactly 3 (breakAfter) before failing fast", v.Queries)
	}
	if got := s.metrics.OracleBreaks.Load(); got != 1 {
		t.Fatalf("OracleBreaks = %d, want 1", got)
	}
	// 3 exhausted queries x (attempts-1) retries each.
	if got := s.metrics.OracleRetries.Load(); got != 3 {
		t.Fatalf("OracleRetries = %d, want 3", got)
	}
}

// --- Retry-After derivation --------------------------------------------

func TestRetryAfterDerivedFromThroughput(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	// 10 completions over 10s -> 1/s; backlog of 9 plus this request -> 10s.
	if got := s.retryAfter(9, 10, 10); got != "10" {
		t.Fatalf("retryAfter(9, 10, 10) = %q, want \"10\"", got)
	}
	// Massive backlog clamps at 60.
	if got := s.retryAfter(100_000, 10, 10); got != "60" {
		t.Fatalf("retryAfter(100000, 10, 10) = %q, want \"60\"", got)
	}
	// No history yet falls back to 1.
	if got := s.retryAfter(5, 0, 0); got != "1" {
		t.Fatalf("retryAfter(5, 0, 0) = %q, want \"1\"", got)
	}
	// Fast drains still answer at least 1.
	if got := s.retryAfter(0, 1_000_000, 10); got != "1" {
		t.Fatalf("retryAfter(0, 1e6, 10) = %q, want \"1\"", got)
	}
}
