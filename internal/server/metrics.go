package server

import (
	"sync/atomic"
	"time"

	"mpass/internal/tenant"
)

// Metrics is the daemon's expvar-style counter set: plain atomics sampled
// into a JSON snapshot by the /metrics handler. Unlike the stdlib expvar
// package there is no process-global registry, so every Server instance —
// including the many spun up by tests — owns an independent set.
type Metrics struct {
	// Request outcomes.
	ScanRequests   atomic.Int64 // POST /v1/scan accepted for scoring
	ScanRejected   atomic.Int64 // scans shed with 429 (batcher queue full)
	AttackRequests atomic.Int64 // POST /v1/attack jobs admitted
	AttackRejected atomic.Int64 // attacks shed with 429 (job queue full)
	ScanErrors     atomic.Int64 // scans failing for any other reason

	// Scoring pipeline.
	CacheHits     atomic.Int64
	CacheMisses   atomic.Int64
	ScansStreamed atomic.Int64 // scans served by the O(chunk) streaming path
	StreamedBytes atomic.Int64 // total bytes fed through streaming scans
	Batches       atomic.Int64 // dispatcher flushes
	BatchedRaws   atomic.Int64 // requests flushed across all flushes
	EngineScores  atomic.Int64 // samples scored, summed over engines
	MaxBatchSize  atomic.Int64 // largest coalesced batch observed
	Coalesced     atomic.Int64 // flushes with more than one request

	// Oracle traffic from resident attack jobs.
	OracleQueries atomic.Int64
	OracleRetries atomic.Int64 // backed-off re-attempts after transient oracle errors
	OracleBreaks  atomic.Int64 // circuit-breaker openings (oracle declared unavailable)

	// Job lifecycle robustness.
	JobsEvicted   atomic.Int64 // finished jobs dropped from the registry (TTL or cap)
	JobsCancelled atomic.Int64 // jobs ended by deadline expiry or shutdown cancellation

	// Model hot-reload lifecycle.
	Reloads        atomic.Int64 // successful model-set swaps
	ReloadFailures atomic.Int64 // reloads rejected (load error or failed certification)
	CachePurged    atomic.Int64 // score-cache entries dropped across all swaps

	// Tenant admission layer (zero when no allowlist is configured).
	TenantUnauthenticated atomic.Int64 // requests rejected 401 (unknown or missing key)
	TenantRejected        atomic.Int64 // requests rejected 429 by a tenant quota
	TenantReloads         atomic.Int64 // successful allowlist reloads (SIGHUP or endpoint)

	ScanLatency Histogram

	// scansDrained counts flushed requests per second for the scan-shed
	// Retry-After hint.
	scansDrained DrainRate
}

// observeBatch records one dispatcher flush of n requests. scored is the
// samples it scores summed over engines: a request needing every engine
// counts once per engine, an oracle query scoped to its target once.
//
//mpass:zeroalloc
func (m *Metrics) observeBatch(n, scored int) {
	m.Batches.Add(1)
	m.BatchedRaws.Add(int64(n))
	m.EngineScores.Add(int64(scored))
	m.scansDrained.Add(time.Now(), int64(n))
	if n > 1 {
		m.Coalesced.Add(1)
	}
	for {
		cur := m.MaxBatchSize.Load()
		if int64(n) <= cur || m.MaxBatchSize.CompareAndSwap(cur, int64(n)) {
			return
		}
	}
}

// histBounds are the scan-latency bucket upper bounds. The last implicit
// bucket is +Inf.
var histBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
}

// Histogram is a fixed-bucket latency histogram with atomic counters.
type Histogram struct {
	counts [len(histBounds) + 1]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. It sits on every scan response, so it must
// stay allocation free.
//
//mpass:zeroalloc
func (h *Histogram) Observe(d time.Duration) {
	i := 0
	for i < len(histBounds) && d > histBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	Count     int64     `json:"count"`
	MeanMs    float64   `json:"mean_ms"`
	BucketsMs []float64 `json:"buckets_ms"` // upper bounds; -1 = +Inf
	Counts    []int64   `json:"counts"`
}

// snapshot samples the histogram. Buckets are reported as cumulative upper
// bounds in milliseconds, with the +Inf bucket last.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load()}
	if s.Count > 0 {
		s.MeanMs = float64(h.sum.Load()) / float64(s.Count) / 1e6
	}
	for i, b := range histBounds {
		s.BucketsMs = append(s.BucketsMs, float64(b)/1e6)
		s.Counts = append(s.Counts, h.counts[i].Load())
	}
	s.BucketsMs = append(s.BucketsMs, -1) // +Inf sentinel
	s.Counts = append(s.Counts, h.counts[len(histBounds)].Load())
	return s
}

// MetricsSnapshot is the /metrics response document.
type MetricsSnapshot struct {
	ScanRequests   int64 `json:"scan_requests"`
	ScanRejected   int64 `json:"scan_rejected"`
	ScanErrors     int64 `json:"scan_errors"`
	AttackRequests int64 `json:"attack_requests"`
	AttackRejected int64 `json:"attack_rejected"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`

	ScansStreamed int64 `json:"scans_streamed"`
	StreamedBytes int64 `json:"streamed_bytes"`

	Batches      int64   `json:"batches"`
	BatchedRaws  int64   `json:"batched_raws"`
	EngineScores int64   `json:"engine_scores"`
	MaxBatchSize int64   `json:"max_batch_size"`
	Coalesced    int64   `json:"coalesced_batches"`
	MeanBatch    float64 `json:"mean_batch_size"`

	OracleQueries int64 `json:"oracle_queries"`
	OracleRetries int64 `json:"oracle_retries"`
	OracleBreaks  int64 `json:"oracle_breaks"`

	JobsQueued    int   `json:"jobs_queued"`
	JobsPending   int   `json:"jobs_pending"`
	JobsDone      int   `json:"jobs_done"`
	JobsEvicted   int64 `json:"jobs_evicted"`
	JobsCancelled int64 `json:"jobs_cancelled"`

	Reloads        int64 `json:"reloads"`
	ReloadFailures int64 `json:"reload_failures"`
	CachePurged    int64 `json:"cache_purged"`

	TenantUnauthenticated int64 `json:"tenant_unauthenticated"`
	TenantRejected        int64 `json:"tenant_rejected"`
	TenantReloads         int64 `json:"tenant_reloads"`

	// Tenants carries the per-tenant counter sets, keyed by tenant name.
	// Filled in by the Server (which owns the tenant table); absent on
	// single-tenant deployments.
	Tenants map[string]tenant.Snapshot `json:"tenants,omitempty"`

	// Registry gauges: current size and the max-live-jobs bound it is held
	// under (0 = unbounded). Filled in by the Server, which owns the registry.
	JobsRegistry    int `json:"jobs_registry"`
	JobsRegistryCap int `json:"jobs_registry_cap"`

	ScanLatency HistogramSnapshot `json:"scan_latency"`
}

// Snapshot samples every counter. Queue-depth gauges are filled in by the
// Server, which owns the job pool.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		ScanRequests:   m.ScanRequests.Load(),
		ScanRejected:   m.ScanRejected.Load(),
		ScanErrors:     m.ScanErrors.Load(),
		AttackRequests: m.AttackRequests.Load(),
		AttackRejected: m.AttackRejected.Load(),
		CacheHits:      m.CacheHits.Load(),
		CacheMisses:    m.CacheMisses.Load(),
		ScansStreamed:  m.ScansStreamed.Load(),
		StreamedBytes:  m.StreamedBytes.Load(),
		Batches:        m.Batches.Load(),
		BatchedRaws:    m.BatchedRaws.Load(),
		EngineScores:   m.EngineScores.Load(),
		MaxBatchSize:   m.MaxBatchSize.Load(),
		Coalesced:      m.Coalesced.Load(),
		OracleQueries:  m.OracleQueries.Load(),
		OracleRetries:  m.OracleRetries.Load(),
		OracleBreaks:   m.OracleBreaks.Load(),
		JobsEvicted:    m.JobsEvicted.Load(),
		JobsCancelled:  m.JobsCancelled.Load(),
		Reloads:        m.Reloads.Load(),
		ReloadFailures: m.ReloadFailures.Load(),
		CachePurged:    m.CachePurged.Load(),

		TenantUnauthenticated: m.TenantUnauthenticated.Load(),
		TenantRejected:        m.TenantRejected.Load(),
		TenantReloads:         m.TenantReloads.Load(),

		ScanLatency: m.ScanLatency.snapshot(),
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(s.BatchedRaws) / float64(s.Batches)
	}
	return s
}
