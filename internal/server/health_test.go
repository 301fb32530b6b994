package server

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestHealthzEnriched pins the machine-readable health document: model
// version, drain state, and queue depths — the signals the gateway's health
// checker and least-loaded picker consume — while the original bare
// contract (200 serving, 503 draining) stays intact.
func TestHealthzEnriched(t *testing.T) {
	s, ts := newTestServer(t, Config{AttackQueue: 7})

	var h HealthStatus
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	if h.Status != "ok" || h.Draining {
		t.Fatalf("healthz = %+v, want status ok / not draining", h)
	}
	if want := s.cfg.Registry.Current().Version(); h.ModelVersion != want {
		t.Fatalf("model_version = %q, want the engine set's %q", h.ModelVersion, want)
	}
	if len(h.Models) != 2 {
		t.Fatalf("models = %v, want the 2 stub detectors", h.Models)
	}
	if h.ScanQueueCap != 256 || h.JobsCap != 7 {
		t.Fatalf("caps = scan %d jobs %d, want 256 / 7", h.ScanQueueCap, h.JobsCap)
	}
	if h.ScanQueue < 0 || h.JobsPending != 0 || h.JobsRegistry != 0 {
		t.Fatalf("idle queue depths = %+v, want zeros", h)
	}

	// Draining flips both the JSON state and the status code.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp = getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp.StatusCode)
	}
	if h.Status != "draining" || !h.Draining {
		t.Fatalf("draining healthz = %+v, want draining", h)
	}
}

// TestHealthzDefaultModelVersion pins the content-addressed version: two
// replicas serving identical engines advertise the same non-empty version,
// and it is the engine set's own.
func TestHealthzDefaultModelVersion(t *testing.T) {
	s1, ts1 := newTestServer(t, Config{})
	_, ts2 := newTestServer(t, Config{})
	var h1, h2 HealthStatus
	getJSON(t, ts1.URL+"/healthz", &h1)
	getJSON(t, ts2.URL+"/healthz", &h2)
	if h1.ModelVersion == "" || h1.ModelVersion != h2.ModelVersion {
		t.Fatalf("model versions %q vs %q, want equal and non-empty",
			h1.ModelVersion, h2.ModelVersion)
	}
	if want := s1.cfg.Registry.Current().Version(); h1.ModelVersion != want {
		t.Fatalf("model_version = %q, want the engine set's %q", h1.ModelVersion, want)
	}
}
