package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"mpass/internal/core"
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// newTestServer builds a Server with an httptest frontend. cfg.Registry
// defaults to the stub engines A and B.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = stubRegistry(t)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func postBytes(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp
}

func TestScanEndpointParityAndCache(t *testing.T) {
	dets := []engine.Driver{
		&stubDriver{name: "A", thr: 0.5},
		&stubDriver{name: "B", thr: 0.2},
	}
	s, ts := newTestServer(t, Config{Registry: stubRegistry(t, dets...)})

	raw := []byte("definitely a portable executable")
	resp, body := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan status %d: %s", resp.StatusCode, body)
	}
	var sr scanResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decoding scan response: %v", err)
	}
	sum := sha256.Sum256(raw)
	if sr.SHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("sha256 = %s, want %s", sr.SHA256, hex.EncodeToString(sum[:]))
	}
	if sr.Size != len(raw) || sr.Cached {
		t.Fatalf("size/cached = %d/%v, want %d/false", sr.Size, sr.Cached, len(raw))
	}
	if len(sr.Results) != 2 {
		t.Fatalf("got %d model results, want 2", len(sr.Results))
	}
	anyMal := false
	for i, d := range dets {
		// JSON float64 round-trips exactly, so this is the bit-identical gate.
		if got, want := sr.Results[i].Score, d.Score(raw); got != want {
			t.Fatalf("model %s: served score %v != direct %v", d.Name(), got, want)
		}
		if got, want := sr.Results[i].Malicious, d.Label(raw); got != want {
			t.Fatalf("model %s: served label %v != direct %v", d.Name(), got, want)
		}
		anyMal = anyMal || d.Label(raw)
	}
	if sr.Malicious != anyMal {
		t.Fatalf("aggregate malicious = %v, want %v", sr.Malicious, anyMal)
	}

	// Second scan of the same bytes is a cache hit with identical results.
	resp2, body2 := postBytes(t, ts.URL+"/v1/scan", raw)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached scan status %d", resp2.StatusCode)
	}
	var sr2 scanResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatal(err)
	}
	if !sr2.Cached {
		t.Fatal("second scan of identical bytes not served from cache")
	}
	if sr2.Results[0].Score != sr.Results[0].Score || sr2.Results[1].Score != sr.Results[1].Score {
		t.Fatal("cached scores differ from first scan")
	}
	if hits := s.metrics.CacheHits.Load(); hits != 1 {
		t.Fatalf("CacheHits = %d, want 1", hits)
	}
}

func TestScanRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})

	resp, _ := postBytes(t, ts.URL+"/v1/scan", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postBytes(t, ts.URL+"/v1/scan", bytes.Repeat([]byte{0x90}, 128))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413", resp.StatusCode)
	}
}

// stubAttack returns an AttackFunc that queries the oracle queries times and
// then succeeds with the original bytes plus a marker suffix.
func stubAttack(queries int) AttackFunc {
	return func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		for i := 0; i < queries; i++ {
			if _, err := core.QueryOracle(ctx, oracle, append(original, byte(i))); err != nil {
				return &core.Result{Queries: i}, err
			}
		}
		ae := append(append([]byte(nil), original...), 0xAA, 0xBB)
		return &core.Result{Success: true, AE: ae, Queries: queries, Rounds: 1}, nil
	}
}

func TestAttackJobLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Attack: stubAttack(3), Seed: 42})

	raw := []byte("victim sample bytes")
	resp, body := postBytes(t, ts.URL+"/v1/attack?target=B", raw)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("attack status %d: %s", resp.StatusCode, body)
	}
	var ar attackResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Target != "B" || ar.ID == "" || ar.Poll != "/v1/jobs/"+ar.ID {
		t.Fatalf("bad attack response: %+v", ar)
	}

	var v JobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, ts.URL+ar.Poll+"?ae=1", &v)
		if v.State == JobDone || v.State == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.State != JobDone || v.Success == nil || !*v.Success {
		t.Fatalf("job finished %q success=%v (err %q)", v.State, v.Success, v.Error)
	}
	if v.Queries == nil || *v.Queries != 3 || v.Rounds == nil || *v.Rounds != 1 {
		t.Fatalf("queries/rounds = %v/%v, want 3/1", v.Queries, v.Rounds)
	}
	wantAE := append(append([]byte(nil), raw...), 0xAA, 0xBB)
	if v.AESize != len(wantAE) {
		t.Fatalf("ae_size = %d, want %d", v.AESize, len(wantAE))
	}
	gotAE, err := base64.StdEncoding.DecodeString(v.AEBase64)
	if err != nil || !bytes.Equal(gotAE, wantAE) {
		t.Fatalf("ae_base64 did not round-trip the adversarial example (err %v)", err)
	}
	sum := sha256.Sum256(wantAE)
	if v.AESHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("ae_sha256 = %s, want %s", v.AESHA256, hex.EncodeToString(sum[:]))
	}
	wantAPR := 100 * float64(2) / float64(len(raw))
	if v.APRPercent != wantAPR {
		t.Fatalf("apr_percent = %v, want %v", v.APRPercent, wantAPR)
	}
	if got := s.metrics.OracleQueries.Load(); got != 3 {
		t.Fatalf("OracleQueries = %d, want 3", got)
	}

	// Without ?ae=1 the payload stays out of the response.
	var lean JobView
	getJSON(t, ts.URL+ar.Poll, &lean)
	if lean.AEBase64 != "" {
		t.Fatal("ae_base64 leaked without ?ae=1")
	}
}

func TestAttackValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Attack: stubAttack(0)})

	resp, body := postBytes(t, ts.URL+"/v1/attack?target=nope", []byte("x"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown target: status %d: %s", resp.StatusCode, body)
	}
	resp = getJSON(t, ts.URL+"/v1/jobs/job-999999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestAttackDisabledWithoutAttackFunc(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := postBytes(t, ts.URL+"/v1/attack", []byte("x"))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status %d, want 501", resp.StatusCode)
	}
}

func TestAttackQueueOverloadSheds429(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	blockingAttack := func(ctx context.Context, target detect.Detector, original []byte, oracle core.Oracle, seed int64) (*core.Result, error) {
		started <- struct{}{}
		<-release
		return &core.Result{Success: false, Queries: 0}, nil
	}
	s, ts := newTestServer(t, Config{
		Attack:        blockingAttack,
		AttackWorkers: 1,
		AttackQueue:   1,
	})

	// Job 1 occupies the single worker ...
	resp, _ := postBytes(t, ts.URL+"/v1/attack", []byte("one"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status %d", resp.StatusCode)
	}
	<-started
	// ... job 2 fills the queue ...
	resp, _ = postBytes(t, ts.URL+"/v1/attack", []byte("two"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status %d", resp.StatusCode)
	}
	// ... and job 3 is shed.
	resp, body := postBytes(t, ts.URL+"/v1/attack", []byte("three"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.metrics.AttackRejected.Load(); got != 1 {
		t.Fatalf("AttackRejected = %d, want 1", got)
	}
	close(release)
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var hz struct {
		Status string   `json:"status"`
		Models []string `json:"models"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &hz)
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}
	if len(hz.Models) != 2 || hz.Models[0] != "A" || hz.Models[1] != "B" {
		t.Fatalf("healthz models = %v", hz.Models)
	}

	for i := 0; i < 3; i++ {
		postBytes(t, ts.URL+"/v1/scan", []byte(fmt.Sprintf("sample-%d", i)))
	}
	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.ScanRequests != 3 {
		t.Fatalf("scan_requests = %d, want 3", snap.ScanRequests)
	}
	if snap.Batches == 0 || snap.BatchedRaws != 3 {
		t.Fatalf("batches/batched_raws = %d/%d", snap.Batches, snap.BatchedRaws)
	}
	if snap.ScanLatency.Count != 3 || len(snap.ScanLatency.Counts) != len(histBounds)+1 {
		t.Fatalf("latency histogram count=%d buckets=%d", snap.ScanLatency.Count, len(snap.ScanLatency.Counts))
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config with no engine registry")
	}
}
