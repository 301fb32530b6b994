package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scenarioFiles returns every checked-in scenario. scenarios/tenants.json
// sits beside them but is the allowlist their fleets load, not a scenario.
func scenarioFiles(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		if filepath.Base(p) == "tenants.json" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	if len(out) == 0 {
		tb.Fatal("no scenario files found")
	}
	return out
}

func TestCheckedInScenariosParse(t *testing.T) {
	for name, data := range scenarioFiles(t) {
		if _, err := parseScenario(data); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEveryWeightedKindSends: every kind a checked-in stream gives a
// positive weight sends at least one request, and the schedule covers the
// stream exactly. A per-request random draw let noisy-neighbor's 2% stream
// and attack weights send nothing at its seed.
func TestEveryWeightedKindSends(t *testing.T) {
	for name, data := range scenarioFiles(t) {
		sc, err := parseScenario(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ph := range sc.Phases {
			for si, st := range ph.Streams {
				kinds := schedule(st.Traffic, st.Requests)
				sent := map[string]int{}
				for _, k := range kinds {
					sent[k]++
				}
				if len(kinds) != st.Requests {
					t.Errorf("%s phase %s stream %d: %d kinds scheduled for %d requests", name, ph.Name, si, len(kinds), st.Requests)
				}
				for kind, w := range st.Traffic {
					if w > 0 && sent[kind] < 1 {
						t.Errorf("%s phase %s stream %d: weighted kind %q sends nothing", name, ph.Name, si, kind)
					}
				}
			}
		}
	}
}

// TestScheduleCountsAndSpread pins the counts of noisy-neighbor's baseline
// mix and checks that a small kind is spread across the stream, not
// bunched at one end.
func TestScheduleCountsAndSpread(t *testing.T) {
	kinds := schedule(map[string]float64{"scan": 0.93, "cachemiss": 0.05, "stream": 0.02}, 150)
	var at []int
	sent := map[string]int{}
	for i, k := range kinds {
		sent[k]++
		if k == "stream" {
			at = append(at, i)
		}
	}
	if sent["scan"] != 139 || sent["cachemiss"] != 8 || sent["stream"] != 3 {
		t.Fatalf("sent %v, want scan 139, cachemiss 8, stream 3", sent)
	}
	for j, i := range at {
		if lo, hi := j*50, (j+1)*50; i < lo || i >= hi {
			t.Fatalf("stream request %d at %d, want one in each third of the stream (%v)", j, i, at)
		}
	}
	if got := schedule(nil, 3); got[0] != "scan" || got[2] != "scan" {
		t.Fatalf("empty mix scheduled %v, want all scan", got)
	}
}

// validScenario is a minimal accepted document that each malformed case
// below breaks in exactly one place.
const validScenario = `{
  "name": "t",
  "fleet": {"replicas": 2, "gateway": true, "mpassd_flags": ["-quant", "int32"]},
  "tenants": {"acme": "k1"},
  "phases": [
    {"name": "a", "target": "replica:1", "actions": [{"reload": 1}, {"sighup": 0}],
     "streams": [{"tenant": "acme", "clients": 1, "requests": 4, "traffic": {"scan": 1}}]},
    {"name": "b", "target": "gateway", "actions": [{"sigkill": 1}], "streams": [{"clients": 1, "requests": 1}],
     "thresholds": {"min_hit_ratio": 0.9}}
  ],
  "thresholds": {"scale_out": {"from": "a", "to": "b"}}
}`

func TestParseScenarioRejects(t *testing.T) {
	if _, err := parseScenario([]byte(validScenario)); err != nil {
		t.Fatalf("base document rejected: %v", err)
	}
	// Each case applies (old, new) replacements to the base document.
	for _, tc := range []struct {
		name  string
		edits []string
		want  string
	}{
		{"unknown action", []string{`{"sighup": 0}`, `{"sigstop": 0}`}, "unknown action"},
		{"two-key action", []string{`{"sighup": 0}`, `{"sighup": 0, "reload": 1}`}, "one-key"},
		{"replica outside the fleet", []string{`{"sighup": 0}`, `{"sighup": 2}`}, "outside the 2-replica fleet"},
		{"negative replica", []string{`{"sighup": 0}`, `{"sighup": -1}`}, "outside the 2-replica fleet"},
		{"target names no replica", []string{`"replica:1"`, `"replica:2"`}, "names no process"},
		{"target names no process", []string{`"replica:1"`, `"router"`}, "names no process"},
		{"gateway target without a gateway", []string{`"gateway": true`, `"gateway": false`}, "names no process"},
		{"sigkill of the only replica", []string{`"replicas": 2`, `"replicas": 1`, `"replica:1"`, `"replica:0"`,
			`{"sigkill": 1}`, `{"sigkill": 0}`}, "no replica running"},
		{"sigkill leaving none", []string{`{"sigkill": 1}`, `{"sigkill": 0}, {"sigkill": 1}`}, "no replica running"},
		{"target killed", []string{`"name": "b", "target": "gateway"`, `"name": "b", "target": "replica:1"`}, "is killed"},
		{"negative weight", []string{`{"scan": 1}`, `{"scan": -1}`}, "negative weight"},
		{"unknown traffic kind", []string{`{"scan": 1}`, `{"scna": 1}`}, "unknown traffic kind"},
		{"mix outnumbers requests", []string{`{"scan": 1}`, `{"scan": 1, "cachemiss": 1, "attack": 1, "stream": 1}`,
			`"requests": 4`, `"requests": 3`}, "cannot give every weighted traffic kind"},
		{"unknown tenant", []string{`"tenant": "acme"`, `"tenant": "globex"`}, "not in the scenario's tenants"},
		{"zero clients", []string{`"clients": 1, "requests": 4`, `"clients": 0, "requests": 4`}, "must be >= 1"},
		{"reload on the gateway", []string{`"target": "replica:1", `, ``}, "needs a replica target"},
		{"reload outruns requests", []string{`{"reload": 1}`, `{"reload": 4}`}, "reload 4 needs"},
		{"runner-owned flag", []string{`["-quant", "int32"]`, `["-models", "/m"]`}, "set by the runner"},
		{"runner-owned shared flag", []string{`["-quant", "int32"]`, `["-drain=1s"]`}, "set by the runner"},
		{"gateway flags", []string{`"gateway": true`, `"gateway": true, "gateway_flags": ["-drain", "1s"]`}, "unknown field"},
		{"misspelt threshold", []string{`{"min_hit_ratio": 0.9}`, `{"min_hit_rate": 0.9}`}, "unknown field"},
		{"negative threshold", []string{`{"min_hit_ratio": 0.9}`, `{"min_hit_ratio": -0.9}`}, "must be >= 0"},
		{"phase-level scale_out", []string{`{"min_hit_ratio": 0.9}`, `{"scale_out": {"from": "a", "to": "b"}}`}, "scenario-level"},
		{"scale_out unknown phase", []string{`"to": "b"`, `"to": "c"`}, "two different phases"},
		{"duplicate phase", []string{`"name": "b"`, `"name": "a"`}, "duplicate phase"},
		{"bad expect", []string{`"requests": 1}`, `"requests": 1, "expect": 42}`}, "not an HTTP status"},
		{"trailing data", []string{`"to": "b"}}`, `"to": "b"}}}`}, "trailing data"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := validScenario
			for i := 0; i < len(tc.edits); i += 2 {
				if !strings.Contains(doc, tc.edits[i]) {
					t.Fatalf("edit %q does not apply", tc.edits[i])
				}
				doc = strings.Replace(doc, tc.edits[i], tc.edits[i+1], 1)
			}
			_, err := parseScenario([]byte(doc))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// FuzzParseScenario: the parser never panics, and whatever it accepts is
// runnable — tenants exist, every stream has clients and requests, and
// every target and action names a process of the fleet.
func FuzzParseScenario(f *testing.F) {
	for _, data := range scenarioFiles(f) {
		f.Add(data)
	}
	f.Add([]byte(validScenario))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := parseScenario(data)
		if err != nil {
			return
		}
		n := sc.Fleet.Replicas
		if n < 1 || n > maxReplicas || sc.Samples < 1 {
			t.Fatalf("accepted fleet of %d replicas, samples %d", n, sc.Samples)
		}
		killed := make([]bool, n)
		for _, ph := range sc.Phases {
			if ph.pool.samples < 1 {
				t.Fatalf("phase %q accepted a pool of %d samples", ph.Name, ph.pool.samples)
			}
			if len(ph.Streams) == 0 {
				t.Fatalf("phase %q accepted without streams", ph.Name)
			}
			for _, st := range ph.Streams {
				if _, ok := sc.Tenants[st.Tenant]; st.Tenant != "" && !ok {
					t.Fatalf("phase %q: accepted unknown tenant %q", ph.Name, st.Tenant)
				}
				if st.Clients < 1 || st.Requests < 1 {
					t.Fatalf("phase %q: accepted clients %d, requests %d", ph.Name, st.Clients, st.Requests)
				}
			}
			for _, a := range ph.actions {
				switch a.kind {
				case "reload":
					if ph.target.gateway || a.arg < 1 {
						t.Fatalf("phase %q: accepted reload %d on %s", ph.Name, a.arg, ph.target)
					}
				case "sighup", "sigkill":
					if a.arg < 0 || a.arg >= n || killed[a.arg] {
						t.Fatalf("phase %q: accepted %s of replica %d", ph.Name, a.kind, a.arg)
					}
					killed[a.arg] = killed[a.arg] || a.kind == "sigkill"
				default:
					t.Fatalf("phase %q: accepted action %q", ph.Name, a.kind)
				}
			}
			if ph.target.gateway && !sc.Fleet.Gateway {
				t.Fatalf("phase %q targets a gateway the fleet lacks", ph.Name)
			}
			if !ph.target.gateway && (ph.target.replica < 0 || ph.target.replica >= n || killed[ph.target.replica]) {
				t.Fatalf("phase %q targets %s", ph.Name, ph.target)
			}
		}
	})
}
