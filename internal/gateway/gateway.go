package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mpass/internal/parallel"
	"mpass/internal/server"
)

// Config sizes the gateway. Zero values select the defaults noted per
// field; only Replicas is required.
type Config struct {
	// Replicas lists the mpassd fleet as host:port addresses. The address
	// doubles as the replica's stable identity: ring placement and the
	// cluster job-ID namespace ({replica}/{id}) both derive from it, so a
	// fleet description is the only coordination the cluster needs.
	Replicas []string

	// VNodes is how many ring points each replica contributes (default
	// 128). More points flatten the shard-size distribution; the ring test
	// pins the ≤ 1/N + ε movement bound this buys.
	VNodes int

	// Health checking. Each replica is probed on its own jittered interval
	// — uniform in [HealthInterval/2, 3·HealthInterval/2) from a seeded
	// stream, so a fleet of gateways never thunders in phase (default 1s).
	// A probe slower than HealthTimeout fails (default 2s). FailAfter
	// consecutive failures mark the replica down and re-shard the ring
	// (default 2); one success marks it back up. Transport errors on
	// proxied requests mark the replica down immediately — the prober is
	// the recovery path, not the only detector.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	FailAfter      int

	// RequestTimeout bounds one proxied scan or attack submit, including
	// the single retry after a replica loss (default 30s).
	RequestTimeout time.Duration

	// Upload handling. Bodies are read fully (hashed incrementally) before
	// routing, because the route *is* the content hash. Bodies up to
	// MaxBufferBytes stay in memory (default 1 MiB); longer ones spool to a
	// temp file in SpoolDir (default os.TempDir()), keeping gateway memory
	// O(MaxBufferBytes) per request. MaxBodyBytes caps any upload (default
	// 64 MiB, matching mpassd's streaming cap; 413 beyond).
	MaxBufferBytes int64
	MaxBodyBytes   int64
	SpoolDir       string

	// MaxIdleConnsPerReplica sizes the pooled keep-alive connections kept
	// warm to each replica (default 64).
	MaxIdleConnsPerReplica int

	// Transport overrides the replica-facing RoundTripper (tests wire
	// faultinject.Transport here). Nil builds the pooled keep-alive
	// transport described above.
	Transport http.RoundTripper

	// Seed drives the health-probe jitter stream (default 1).
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBufferBytes <= 0 {
		c.MaxBufferBytes = 1 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if c.MaxIdleConnsPerReplica <= 0 {
		c.MaxIdleConnsPerReplica = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// replica is one fleet member's live state. The routing path reads only
// the healthy bit and the load gauges; the probe loop and the
// request-error fast path write them.
type replica struct {
	name string // host:port — ring identity and job-ID namespace prefix
	base string // http://host:port

	healthy atomic.Bool

	mu          sync.Mutex
	consecFails int                 //mpass:guardedby mu
	lastStatus  server.HealthStatus //mpass:guardedby mu — most recent decoded /healthz document
	lastProbe   time.Time           //mpass:guardedby mu

	// inflightAttacks counts attack submits this gateway currently has
	// outstanding against the replica — the freshness correction on top of
	// the probed jobs_pending gauge for least-loaded placement.
	inflightAttacks atomic.Int64
}

// status returns the last decoded health document and when it was probed.
func (r *replica) status() (server.HealthStatus, time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastStatus, r.lastProbe
}

// load is the least-loaded placement signal: probed pending attack jobs
// plus submits in flight from this gateway since the probe.
func (r *replica) load() int64 {
	r.mu.Lock()
	pending := int64(r.lastStatus.JobsPending)
	r.mu.Unlock()
	return pending + r.inflightAttacks.Load()
}

// Gateway fans one HTTP front over the replica fleet. Build with New,
// mount Handler, Close to stop the health prober.
type Gateway struct {
	cfg      Config
	replicas []*replica
	byName   map[string]int
	client   *http.Client

	ring   atomic.Pointer[ring]
	ringMu sync.Mutex // serializes rebuilds; lookups are lock-free

	metrics  Metrics
	probes   *parallel.Pool
	draining atomic.Bool
	started  time.Time
	mux      *http.ServeMux

	// scansRouted and attacksRouted pace the cluster's Retry-After hints.
	scansRouted, attacksRouted server.DrainRate
}

// New validates cfg, builds the ring over the full fleet (replicas start
// presumed healthy; the first failed probe or proxied request corrects
// that within FailAfter probes), and starts the per-replica health loops.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("gateway: no replicas configured")
	}
	cfg.fillDefaults()
	g := &Gateway{
		cfg:     cfg,
		byName:  make(map[string]int, len(cfg.Replicas)),
		started: time.Now(),
	}
	for i, addr := range cfg.Replicas {
		if addr == "" {
			return nil, fmt.Errorf("gateway: empty replica address at index %d", i)
		}
		if _, dup := g.byName[addr]; dup {
			return nil, fmt.Errorf("gateway: duplicate replica %q", addr)
		}
		r := &replica{name: addr, base: "http://" + addr}
		r.healthy.Store(true)
		g.byName[addr] = i
		g.replicas = append(g.replicas, r)
	}
	g.metrics.ReplicasTotal.Store(int64(len(g.replicas)))
	g.metrics.ReplicasHealthy.Store(int64(len(g.replicas)))

	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        cfg.MaxIdleConnsPerReplica * len(cfg.Replicas),
			MaxIdleConnsPerHost: cfg.MaxIdleConnsPerReplica,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	g.client = &http.Client{Transport: transport}

	g.rebuildRing()

	// One probe loop per replica, all on a bounded pool whose base context
	// is the gateway's lifetime: Close cancels it and every loop exits.
	g.probes = parallel.NewPool(len(g.replicas), len(g.replicas))
	for i := range g.replicas {
		idx := i
		if err := g.probes.TrySubmitCtx(func(ctx context.Context) {
			g.probeLoop(ctx, idx)
		}); err != nil {
			g.probes.Cancel()
			return nil, fmt.Errorf("gateway: starting health prober: %w", err)
		}
	}

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/scan", g.handleScan)
	g.mux.HandleFunc("POST /v1/attack", g.handleAttack)
	g.mux.HandleFunc("GET /v1/jobs/{replica}/{id}", g.handleJob)
	g.mux.HandleFunc("GET /healthz", g.handleHealthz)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	return g, nil
}

// Handler returns the HTTP handler tree.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Metrics exposes the live gateway counter set (tests, embedding daemons).
func (g *Gateway) Metrics() *Metrics { return &g.metrics }

// Close stops accepting new work (503), cancels the health-probe loops,
// and waits for them to exit. The HTTP listener's own Shutdown remains the
// caller's job, mirroring server.Server.
func (g *Gateway) Close(ctx context.Context) error {
	if !g.draining.CompareAndSwap(false, true) {
		return nil
	}
	g.probes.Cancel()
	err := g.probes.Drain(ctx)
	if t, ok := g.client.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	return err
}

// healthyMembers snapshots the indices of replicas currently marked up.
func (g *Gateway) healthyMembers() []int {
	members := make([]int, 0, len(g.replicas))
	for i, r := range g.replicas {
		if r.healthy.Load() {
			members = append(members, i)
		}
	}
	return members
}

// rebuildRing publishes a fresh ring over the healthy set. Rebuilds are
// serialized so a probe success and a request-path failure interleaving
// cannot publish a ring older than the state both observed.
func (g *Gateway) rebuildRing() {
	g.ringMu.Lock()
	defer g.ringMu.Unlock()
	members := g.healthyMembers()
	names := make([]string, len(g.replicas))
	for i, r := range g.replicas {
		names[i] = r.name
	}
	g.ring.Store(buildRing(members, names, g.cfg.VNodes))
	g.metrics.RingRebuilds.Add(1)
	g.metrics.ReplicasHealthy.Store(int64(len(members)))
}

// markDown records a replica failure (probe threshold crossed or a proxied
// request's transport error) and re-shards if it was up.
func (g *Gateway) markDown(i int) {
	r := g.replicas[i]
	if r.healthy.CompareAndSwap(true, false) {
		g.metrics.ReplicaDownEvents.Add(1)
		g.rebuildRing()
	}
}

// markUp records a successful probe and re-shards if the replica was down.
func (g *Gateway) markUp(i int) {
	r := g.replicas[i]
	if r.healthy.CompareAndSwap(false, true) {
		g.metrics.ReplicaUpEvents.Add(1)
		g.rebuildRing()
	}
}

// probeLoop drives one replica's health checks until the gateway closes.
// The interval is jittered per iteration from a seeded stream: uniform in
// [interval/2, 3·interval/2), so probes across replicas (and across
// gateway processes started with different seeds) decorrelate.
func (g *Gateway) probeLoop(ctx context.Context, i int) {
	rng := rand.New(rand.NewSource(g.cfg.Seed + int64(i)*7919))
	timer := time.NewTimer(0) // first probe immediately
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		}
		g.probe(ctx, i)
		jittered := g.cfg.HealthInterval/2 +
			time.Duration(rng.Int63n(int64(g.cfg.HealthInterval)))
		timer.Reset(jittered)
	}
}

// probe runs one health check: GET /healthz, decode the enriched
// HealthStatus, update the replica's gauges, and flip its up/down state
// through the FailAfter ladder. A 503 (draining replica) counts as down
// for routing — a draining mpassd rejects new work — but its decoded
// status is still recorded.
func (g *Gateway) probe(ctx context.Context, i int) {
	r := g.replicas[i]
	pctx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, r.base+"/healthz", nil)
	if err != nil {
		g.probeResult(i, nil, err)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		g.probeResult(i, nil, err)
		return
	}
	defer resp.Body.Close()
	var h server.HealthStatus
	if derr := json.NewDecoder(resp.Body).Decode(&h); derr != nil {
		g.probeResult(i, nil, derr)
		return
	}
	if resp.StatusCode != http.StatusOK {
		g.probeResult(i, &h, fmt.Errorf("healthz status %d", resp.StatusCode))
		return
	}
	g.probeResult(i, &h, nil)
}

// probeResult folds one probe outcome into the replica state.
func (g *Gateway) probeResult(i int, h *server.HealthStatus, err error) {
	r := g.replicas[i]
	r.mu.Lock()
	r.lastProbe = time.Now()
	if h != nil {
		r.lastStatus = *h
	}
	if err != nil {
		r.consecFails++
		fails := r.consecFails
		r.mu.Unlock()
		g.metrics.ProbeFailures.Add(1)
		if fails >= g.cfg.FailAfter {
			g.markDown(i)
		}
		return
	}
	r.consecFails = 0
	r.mu.Unlock()
	g.markUp(i)
}
