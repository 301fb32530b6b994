package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mpass/internal/parallel"
	"mpass/internal/server"
	"mpass/internal/tenant"
)

// Metrics is the gateway's own counter set — routing, retry, re-shard, and
// backpressure events. Replica-side counters are not mirrored here; the
// /metrics handler fetches and merges them live so the cluster view is
// always the fleet's truth, not a gateway-side shadow.
type Metrics struct {
	ScansRouted  atomic.Int64 // scan requests forwarded to a replica
	ScanRetries  atomic.Int64 // scans retried once after a replica loss
	ScansFailed  atomic.Int64 // scans failed after the retry (502/504 to client)
	ScansShed    atomic.Int64 // replica 429s passed through with cluster Retry-After
	ScansSpooled atomic.Int64 // uploads too large to buffer, spooled to disk while hashing
	SpooledBytes atomic.Int64

	AttacksRouted atomic.Int64 // attack submits forwarded
	AttackRetries atomic.Int64 // attack submits retried once after a replica loss
	AttacksFailed atomic.Int64
	AttacksShed   atomic.Int64 // replica 429s passed through

	JobPolls  atomic.Int64 // GET /v1/jobs/{replica}/{id} forwards
	JobErrors atomic.Int64 // polls that could not reach the owning replica

	ProbeFailures     atomic.Int64
	RingRebuilds      atomic.Int64
	ReplicaDownEvents atomic.Int64
	ReplicaUpEvents   atomic.Int64
	ReplicasHealthy   atomic.Int64 // gauge
	ReplicasTotal     atomic.Int64 // gauge
}

// GatewaySnapshot is the JSON form of Metrics inside the /metrics document.
type GatewaySnapshot struct {
	ScansRouted  int64 `json:"scans_routed"`
	ScanRetries  int64 `json:"scan_retries"`
	ScansFailed  int64 `json:"scans_failed"`
	ScansShed    int64 `json:"scans_shed"`
	ScansSpooled int64 `json:"scans_spooled"`
	SpooledBytes int64 `json:"spooled_bytes"`

	AttacksRouted int64 `json:"attacks_routed"`
	AttackRetries int64 `json:"attack_retries"`
	AttacksFailed int64 `json:"attacks_failed"`
	AttacksShed   int64 `json:"attacks_shed"`

	JobPolls  int64 `json:"job_polls"`
	JobErrors int64 `json:"job_errors"`

	ProbeFailures     int64 `json:"probe_failures"`
	RingRebuilds      int64 `json:"ring_rebuilds"`
	ReplicaDownEvents int64 `json:"replica_down_events"`
	ReplicaUpEvents   int64 `json:"replica_up_events"`
	ReplicasHealthy   int64 `json:"replicas_healthy"`
	ReplicasTotal     int64 `json:"replicas_total"`
}

// Snapshot samples every gateway counter.
func (m *Metrics) Snapshot() GatewaySnapshot {
	return GatewaySnapshot{
		ScansRouted:       m.ScansRouted.Load(),
		ScanRetries:       m.ScanRetries.Load(),
		ScansFailed:       m.ScansFailed.Load(),
		ScansShed:         m.ScansShed.Load(),
		ScansSpooled:      m.ScansSpooled.Load(),
		SpooledBytes:      m.SpooledBytes.Load(),
		AttacksRouted:     m.AttacksRouted.Load(),
		AttackRetries:     m.AttackRetries.Load(),
		AttacksFailed:     m.AttacksFailed.Load(),
		AttacksShed:       m.AttacksShed.Load(),
		JobPolls:          m.JobPolls.Load(),
		JobErrors:         m.JobErrors.Load(),
		ProbeFailures:     m.ProbeFailures.Load(),
		RingRebuilds:      m.RingRebuilds.Load(),
		ReplicaDownEvents: m.ReplicaDownEvents.Load(),
		ReplicaUpEvents:   m.ReplicaUpEvents.Load(),
		ReplicasHealthy:   m.ReplicasHealthy.Load(),
		ReplicasTotal:     m.ReplicasTotal.Load(),
	}
}

// ReplicaMetrics is one fleet member's slice of the /metrics document.
type ReplicaMetrics struct {
	Name    string                  `json:"name"`
	Healthy bool                    `json:"healthy"`
	Error   string                  `json:"error,omitempty"`
	Metrics *server.MetricsSnapshot `json:"metrics,omitempty"`
}

// ClusterMetrics is the gateway's GET /metrics response: the fleet summed
// into one MetricsSnapshot (same shape as a single replica's /metrics, so
// existing tooling reads either), the gateway's own counters, and the
// per-replica snapshots the sum was built from.
type ClusterMetrics struct {
	Cluster  server.MetricsSnapshot `json:"cluster"`
	Gateway  GatewaySnapshot        `json:"gateway"`
	Replicas []ReplicaMetrics       `json:"replicas"`
}

// mergeSnapshots sums replica snapshots field by field. Counters add;
// MaxBatchSize takes the max; MeanBatch is recomputed from the summed
// numerator/denominator; histograms merge bucket-wise (every replica uses
// the same fixed bounds) with the mean re-derived from the merged counts.
func mergeSnapshots(snaps []*server.MetricsSnapshot) server.MetricsSnapshot {
	var out server.MetricsSnapshot
	var meanNumer float64 // Σ count_i · mean_i, for the merged latency mean
	for _, s := range snaps {
		if s == nil {
			continue
		}
		out.ScanRequests += s.ScanRequests
		out.ScanRejected += s.ScanRejected
		out.ScanErrors += s.ScanErrors
		out.AttackRequests += s.AttackRequests
		out.AttackRejected += s.AttackRejected
		out.CacheHits += s.CacheHits
		out.CacheMisses += s.CacheMisses
		out.ScansStreamed += s.ScansStreamed
		out.StreamedBytes += s.StreamedBytes
		out.Batches += s.Batches
		out.BatchedRaws += s.BatchedRaws
		out.EngineScores += s.EngineScores
		if s.MaxBatchSize > out.MaxBatchSize {
			out.MaxBatchSize = s.MaxBatchSize
		}
		out.Coalesced += s.Coalesced
		out.OracleQueries += s.OracleQueries
		out.OracleRetries += s.OracleRetries
		out.OracleBreaks += s.OracleBreaks
		out.JobsQueued += s.JobsQueued
		out.JobsPending += s.JobsPending
		out.JobsDone += s.JobsDone
		out.JobsEvicted += s.JobsEvicted
		out.JobsCancelled += s.JobsCancelled
		out.JobsRegistry += s.JobsRegistry
		out.JobsRegistryCap += s.JobsRegistryCap
		out.TenantUnauthenticated += s.TenantUnauthenticated
		out.TenantRejected += s.TenantRejected
		out.TenantReloads += s.TenantReloads
		if len(s.Tenants) > 0 && out.Tenants == nil {
			out.Tenants = make(map[string]tenant.Snapshot)
		}
		for name, ts := range s.Tenants {
			out.Tenants[name] = tenant.Merge(out.Tenants[name], ts)
		}

		h := s.ScanLatency
		if len(out.ScanLatency.BucketsMs) == 0 {
			out.ScanLatency.BucketsMs = append([]float64(nil), h.BucketsMs...)
			out.ScanLatency.Counts = append([]int64(nil), h.Counts...)
		} else if len(h.Counts) == len(out.ScanLatency.Counts) {
			for i, c := range h.Counts {
				out.ScanLatency.Counts[i] += c
			}
		}
		out.ScanLatency.Count += h.Count
		meanNumer += float64(h.Count) * h.MeanMs
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(out.BatchedRaws) / float64(out.Batches)
	}
	if out.ScanLatency.Count > 0 {
		out.ScanLatency.MeanMs = meanNumer / float64(out.ScanLatency.Count)
	}
	return out
}

// fetchReplicaMetrics pulls one replica's /metrics snapshot.
func (g *Gateway) fetchReplicaMetrics(ctx context.Context, r *replica) (*server.MetricsSnapshot, error) {
	mctx, cancel := context.WithTimeout(ctx, g.cfg.HealthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(mctx, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	var snap server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// handleMetrics aggregates /metrics across the fleet: every replica —
// including ones marked down, which may still answer — is polled
// concurrently, the reachable snapshots are summed, and the response
// carries cluster totals, gateway counters, and the per-replica slices.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	n := len(g.replicas)
	docs := make([]ReplicaMetrics, n)
	snaps := make([]*server.MetricsSnapshot, n)
	parallel.ForEach(n, n, func(i int) {
		rep := g.replicas[i]
		docs[i] = ReplicaMetrics{Name: rep.name, Healthy: rep.healthy.Load()}
		snap, err := g.fetchReplicaMetrics(r.Context(), rep)
		if err != nil {
			docs[i].Error = err.Error()
			return
		}
		docs[i].Metrics = snap
		snaps[i] = snap
	})
	writeJSON(w, http.StatusOK, ClusterMetrics{
		Cluster:  mergeSnapshots(snaps),
		Gateway:  g.metrics.Snapshot(),
		Replicas: docs,
	})
}

// ClusterHealth is the gateway's GET /healthz response: per-replica state
// plus the fleet roll-up. Status is "ok" with the whole fleet up,
// "degraded" (still 200) with a partial fleet, "unavailable" (503) with
// none — so bare status-code probes keep working against the gateway too.
type ClusterHealth struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Total    int             `json:"total"`
	UptimeS  float64         `json:"uptime_s"`
	ModelMix bool            `json:"model_mixed"` // healthy replicas disagree on model_version
	Replicas []ReplicaHealth `json:"replicas"`
}

// ReplicaHealth is one member's health slice. Engines passes through the
// replica's per-engine name/version/health lines, so a fleet operator can
// see exactly which engine generation each replica is serving across a
// rolling hot-reload.
type ReplicaHealth struct {
	Name         string                `json:"name"`
	Healthy      bool                  `json:"healthy"`
	Draining     bool                  `json:"draining,omitempty"`
	ModelVersion string                `json:"model_version,omitempty"`
	Engines      []server.EngineHealth `json:"engines,omitempty"`
	JobsPending  int                   `json:"jobs_pending"`
	ScanQueue    int                   `json:"scan_queue"`
	AgeS         float64               `json:"probe_age_s"` // time since the last probe
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if g.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	now := time.Now()
	doc := ClusterHealth{
		Total:   len(g.replicas),
		UptimeS: time.Since(g.started).Seconds(),
	}
	version := ""
	for _, rep := range g.replicas {
		st, probed := rep.status()
		up := rep.healthy.Load()
		rh := ReplicaHealth{
			Name:         rep.name,
			Healthy:      up,
			Draining:     st.Draining,
			ModelVersion: st.ModelVersion,
			Engines:      st.Engines,
			JobsPending:  st.JobsPending,
			ScanQueue:    st.ScanQueue,
		}
		if !probed.IsZero() {
			rh.AgeS = now.Sub(probed).Seconds()
		}
		doc.Replicas = append(doc.Replicas, rh)
		if up {
			doc.Healthy++
			if st.ModelVersion != "" {
				if version == "" {
					version = st.ModelVersion
				} else if version != st.ModelVersion {
					doc.ModelMix = true
				}
			}
		}
	}
	code := http.StatusOK
	switch {
	case doc.Healthy == 0:
		doc.Status = "unavailable"
		code = http.StatusServiceUnavailable
	case doc.Healthy < doc.Total:
		doc.Status = "degraded"
	default:
		doc.Status = "ok"
	}
	writeJSON(w, code, doc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
