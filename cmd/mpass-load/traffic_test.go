package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fakeReplica answers the mpassd endpoints the runner drives: scans score
// by content hash under the resident generation, reloads bump the
// generation, attacks finish at once, and with a key set a scan, attack or
// poll without it is 401 (model reloads take no tenant key, as in mpassd).
type fakeReplica struct {
	key string

	mu      sync.Mutex
	version int //mpass:guardedby mu
	shed    bool
}

func (f *fakeReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.key != "" && r.URL.Path != "/v1/models/reload" && r.Header.Get("X-API-Key") != f.key {
		w.WriteHeader(http.StatusUnauthorized)
		return
	}
	f.mu.Lock()
	ver := fmt.Sprintf("v%d", f.version)
	f.mu.Unlock()
	switch r.URL.Path {
	case "/v1/scan":
		if f.shed {
			w.WriteHeader(http.StatusTooManyRequests) // no Retry-After: a contract breach
			return
		}
		h := sha256.New()
		io.Copy(h, r.Body)
		sum := h.Sum(nil)
		json.NewEncoder(w).Encode(map[string]any{
			"sha256": hex.EncodeToString(sum), "model_version": ver,
			"results": []map[string]any{{"model": "m", "score": float64(sum[0]) / 255}},
		})
	case "/v1/models/reload":
		f.mu.Lock()
		f.version++
		ver = fmt.Sprintf("v%d", f.version)
		f.mu.Unlock()
		json.NewEncoder(w).Encode(map[string]any{"swapped": true, "model_version": ver})
	case "/v1/attack":
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"poll": "/v1/jobs/1"})
	case "/v1/jobs/1":
		json.NewEncoder(w).Encode(map[string]string{"state": "done"})
	default:
		http.NotFound(w, r)
	}
}

func testRunner(t *testing.T, doc string, fake *fakeReplica) (*runner, *scenarioFile) {
	t.Helper()
	sc, err := parseScenario([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(fake)
	t.Cleanup(srv.Close)
	r := newRunner(sc, []string{srv.URL}, "")
	r.mu.Lock()
	r.served["v0"], r.last[0] = true, "v0"
	r.mu.Unlock()
	return r, sc
}

// TestDriveMixedTrafficWithReloads runs concurrent streams of every kind
// while generations swap underneath them: every request is tallied once,
// every reload lands, and the score and version audits stay clean.
func TestDriveMixedTrafficWithReloads(t *testing.T) {
	r, sc := testRunner(t, `{
	  "name": "mixed", "samples": 4, "tenants": {"acme": "k"},
	  "phases": [{"name": "p", "actions": [{"reload": 5}], "streams": [
	    {"tenant": "acme", "clients": 4, "requests": 60,
	     "traffic": {"scan": 0.6, "cachemiss": 0.2, "attack": 0.1, "stream": 0.1}},
	    {"tenant": "acme", "clients": 3, "requests": 40, "expect": 200}
	  ]}]}`, &fakeReplica{key: "k"})
	tallies, swaps := r.drive(&sc.Phases[0])
	if swaps != 5 {
		t.Fatalf("swaps = %d, want 5", swaps)
	}
	var all tally
	for i := range tallies {
		all.add(&tallies[i])
	}
	if all.OK != 100 || all.total() != 100 || all.Incorrect != 0 || all.Unexpected != 0 {
		t.Fatalf("tally = %+v", all)
	}
	if all.JobsDone == 0 || all.Streams == 0 || all.StreamedBytes != all.Streams*streamBytes {
		t.Fatalf("the mix drew no attack or stream: %+v", all)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.served) != 6 || r.last[0] != "v5" || len(r.problems) > 0 {
		t.Fatalf("served %v, last %v, problems %q", r.served, r.last, r.problems)
	}
	if v := auditVersions(r.served, r.seen, r.last, []string{"v5"}); len(v) > 0 {
		t.Fatal(v)
	}
}

func TestDriveExpectedAndShedResponses(t *testing.T) {
	r, sc := testRunner(t, `{
	  "name": "probe", "samples": 2, "tenants": {"acme": "k"},
	  "phases": [
	    {"name": "anonymous", "streams": [{"clients": 2, "requests": 6, "expect": 401}]},
	    {"name": "wrong", "streams": [{"tenant": "acme", "clients": 1, "requests": 3, "expect": 401}]}
	  ]}`, &fakeReplica{key: "k"})
	if got, _ := r.drive(&sc.Phases[0]); got[0].OK != 6 || got[0].Failed != 0 || got[0].Unexpected != 0 {
		t.Fatalf("expected 401s: %+v", got[0])
	}
	if got, _ := r.drive(&sc.Phases[1]); got[0].Unexpected != 3 || got[0].Failed != 3 {
		t.Fatalf("unexpected 200s: %+v", got[0])
	}

	r, sc = testRunner(t, `{"name": "shed", "phases": [{"name": "p", "streams": [{"clients": 2, "requests": 5}]}]}`,
		&fakeReplica{shed: true})
	if got, _ := r.drive(&sc.Phases[0]); got[0].Shed != 5 || got[0].BadRetryAfter != 5 {
		t.Fatalf("429s without Retry-After: %+v", got[0])
	}
}
