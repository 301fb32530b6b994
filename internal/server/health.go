// Enriched health endpoint: GET /healthz answers a machine-readable
// HealthStatus so a fronting gateway can do more than liveness-probe — the
// document carries the model-set version and per-engine versions
// (replica-set consistency checks across hot reloads), the drain state, and
// live queue depths (the least-loaded job-placement signal). The original
// bare contract is preserved exactly: 200 while serving, 503 while draining,
// so probes that only look at the status code keep working unchanged.
package server

import (
	"net/http"
	"time"
)

// EngineHealth is one resident engine's health line on /healthz: its name,
// its content-addressed weight version, and whether it currently reports
// healthy. internal/gateway surfaces these per replica, so a fleet operator
// can see exactly which engine generation every replica is serving.
type EngineHealth struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
}

// HealthStatus is the GET /healthz response document. internal/gateway
// decodes the same type, so the two sides cannot drift apart silently.
type HealthStatus struct {
	// Status is "ok" while serving and "draining" once shutdown begins
	// (the response code mirrors it: 200 vs 503).
	Status string `json:"status"`
	// Models lists the resident detectors in scan-response order.
	Models []string `json:"models"`
	// ModelVersion identifies the resident model generation: the engine
	// set's content-addressed version, which moves on every hot reload.
	// Replicas in one fleet should agree; the gateway surfaces mismatches.
	ModelVersion string `json:"model_version"`
	// Engines carries per-engine name/version/health for the resident set,
	// in scan-response order.
	Engines  []EngineHealth `json:"engines,omitempty"`
	Draining bool           `json:"draining"`
	UptimeS  float64        `json:"uptime_s"`

	// Queue depths — the load signal a gateway's least-loaded picker and
	// cluster backpressure estimator consume.
	ScanQueue    int `json:"scan_queue"`     // scans waiting for the dispatcher
	ScanQueueCap int `json:"scan_queue_cap"` // admission bound (429 beyond)
	JobsQueued   int `json:"jobs_queued"`    // attack jobs waiting for a worker
	JobsPending  int `json:"jobs_pending"`   // attack jobs queued + running
	JobsCap      int `json:"jobs_cap"`       // attack admission bound
	JobsRegistry int `json:"jobs_registry"`  // live + retained finished jobs
}

// health snapshots the serving state for /healthz. The whole document is
// built from one model-set snapshot, so a reload landing mid-probe cannot
// produce a mixed-generation answer.
func (s *Server) health() HealthStatus {
	ms := s.snap()
	draining := s.draining.Load()
	status := "ok"
	if draining {
		status = "draining"
	}
	return HealthStatus{
		Status:       status,
		Models:       ms.Names(),
		ModelVersion: ms.Version(),
		Engines:      ms.engineHealth(),
		Draining:     draining,
		UptimeS:      time.Since(s.started).Seconds(),
		ScanQueue:    len(s.batcher.reqs),
		ScanQueueCap: s.cfg.ScanQueue,
		JobsQueued:   s.jobs.pool.Queued(),
		JobsPending:  s.jobs.pool.Pending(),
		JobsCap:      s.cfg.AttackQueue,
		JobsRegistry: s.jobs.size(),
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.health()
	code := http.StatusOK
	if h.Draining {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}
