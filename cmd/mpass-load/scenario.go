package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// scenarioFile is the on-disk DSL: the fleet to boot, the phases to drive
// against it, and the thresholds that judge the run.
type scenarioFile struct {
	Name    string            `json:"name"`
	Fleet   fleetSpec         `json:"fleet"`
	Seed    int64             `json:"seed"`    // sample-pool seed (phases may override)
	Samples int               `json:"samples"` // distinct samples per pool (phases may override)
	Tenants map[string]string `json:"tenants"` // tenant name -> API key
	Phases  []phaseSpec       `json:"phases"`
	// Thresholds judge the whole run. Only compliant (non-noisy) streams
	// count toward the traffic bounds — the noisy tenant is *supposed* to be
	// shed; the gate asserts everyone else keeps their SLO.
	Thresholds thresholds `json:"thresholds"`
}

// fleetSpec is what the runner boots. The runner sets every flag of the
// gateway and the flags every replica shares (fleet.go); MpassdFlags adds
// what sets one drill's replicas apart.
type fleetSpec struct {
	Replicas    int      `json:"replicas"` // mpassd processes (default 1)
	Gateway     bool     `json:"gateway"`  // front them with mpass-gateway
	MpassdFlags []string `json:"mpassd_flags"`
}

type phaseSpec struct {
	Name string `json:"name"`
	// Target is "gateway" or "replica:N"; the default is the gateway when
	// the fleet has one, else replica:0.
	Target  string `json:"target"`
	Seed    int64  `json:"seed"`    // 0 keeps the scenario's
	Samples int    `json:"samples"` // 0 keeps the scenario's
	// Actions are one-key objects: {"reload": N} swaps the target's model
	// generation N times, evenly spaced through the phase's requests;
	// {"sighup": i} and {"sigkill": i} signal replica i before any traffic.
	Actions []map[string]int `json:"actions"`
	Streams []trafficStream  `json:"streams"`
	// Thresholds judge this phase together with the phases after it that
	// set none of their own, so traffic split across phases can share one
	// window.
	Thresholds thresholds `json:"thresholds"`

	target  target   // resolved Target
	actions []action // resolved Actions, in file order
	pool    poolKey  // resolved Seed and Samples
}

type trafficStream struct {
	Tenant   string             `json:"tenant"` // "" sends no API key
	Clients  int                `json:"clients"`
	Requests int                `json:"requests"`
	Noisy    bool               `json:"noisy"`   // expected to be shed; excluded from SLO stats
	Expect   int                `json:"expect"`  // every response must carry this status (0: any)
	Traffic  map[string]float64 `json:"traffic"` // kind -> weight; empty = all "scan"
}

// thresholds are all optional (nil = unchecked), so a scenario gates on
// exactly the properties it exercises.
type thresholds struct {
	MaxP99Ms          *float64 `json:"max_p99_ms"`
	MaxShedRate       *float64 `json:"max_shed_rate"`
	MaxErrorRate      *float64 `json:"max_error_rate"`
	MinCorrectness    *float64 `json:"min_correctness"`
	FairnessMaxDelta  *float64 `json:"fairness_max_delta"`
	MaxAttackFailRate *float64 `json:"max_attack_fail_rate"` // attack jobs ending "failed"
	// Shard affinity, on /metrics deltas: a floor on every replica's
	// hits/(hits+misses), which also bounds fleet-wide misses at
	// maxMissesPerSample per distinct sample.
	MinHitRatio *float64 `json:"min_hit_ratio"`
	// ScaleOut requires phase To's throughput to beat phase From's by the
	// host-aware factor minScaleOut returns. Scenario level only.
	ScaleOut *scaleOut `json:"scale_out"`
}

type scaleOut struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// poolKey names a sample pool: its generator seed and its size.
type poolKey struct {
	seed    int64
	samples int
}

// target names one process of the fleet.
type target struct {
	gateway bool
	replica int
}

func (t target) String() string {
	if t.gateway {
		return "gateway"
	}
	return "replica:" + strconv.Itoa(t.replica)
}

type action struct {
	kind string // "reload", "sighup" or "sigkill"
	arg  int    // reload count, or the replica to signal
}

// runnerFlags are the mpassd flags the runner sets on every replica.
var runnerFlags = map[string]bool{
	"addr": true, "addr-file": true, "models": true,
	"malware": true, "benign": true, "max-queries": true, "drain": true,
}

const maxReplicas = 16

// parseScenario decodes and validates a scenario document. Unknown fields
// are errors, so a misspelt threshold cannot silently go unchecked.
func parseScenario(data []byte) (*scenarioFile, error) {
	var sc scenarioFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("decoding scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("decoding scenario: trailing data after the document")
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("scenario has no name")
	}
	if err := sc.Fleet.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if len(sc.Phases) == 0 {
		return nil, fmt.Errorf("scenario %q declares no phases", sc.Name)
	}
	if sc.Samples < 0 {
		return nil, fmt.Errorf("scenario %q: samples must be >= 0", sc.Name)
	}
	if sc.Samples == 0 {
		sc.Samples = 32
	}
	killed := make([]bool, sc.Fleet.Replicas)
	names := map[string]bool{}
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		if ph.Name == "" {
			return nil, fmt.Errorf("scenario %q: phase %d has no name", sc.Name, pi)
		}
		if names[ph.Name] {
			return nil, fmt.Errorf("scenario %q: duplicate phase name %q", sc.Name, ph.Name)
		}
		names[ph.Name] = true
		if err := sc.resolvePhase(ph, killed); err != nil {
			return nil, fmt.Errorf("phase %q: %w", ph.Name, err)
		}
	}
	if err := sc.Thresholds.validate(); err != nil {
		return nil, fmt.Errorf("scenario %q thresholds: %w", sc.Name, err)
	}
	if so := sc.Thresholds.ScaleOut; so != nil {
		if !names[so.From] || !names[so.To] || so.From == so.To {
			return nil, fmt.Errorf("scenario %q: scale_out must name two different phases", sc.Name)
		}
	}
	return &sc, nil
}

func (f *fleetSpec) validate() error {
	if f.Replicas == 0 {
		f.Replicas = 1
	}
	if f.Replicas < 0 || f.Replicas > maxReplicas {
		return fmt.Errorf("fleet replicas must be in [1, %d]", maxReplicas)
	}
	for _, a := range f.MpassdFlags {
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if strings.HasPrefix(a, "-") && runnerFlags[name] {
			return fmt.Errorf("flag %s is set by the runner", a)
		}
	}
	return nil
}

// resolvePhase checks one phase against the fleet, given which replicas
// earlier phases killed, and fills in its resolved target and actions.
func (sc *scenarioFile) resolvePhase(ph *phaseSpec, killed []bool) error {
	t, err := sc.parseTarget(ph.Target)
	if err != nil {
		return err
	}
	ph.target = t
	if ph.Samples < 0 {
		return fmt.Errorf("samples must be >= 0")
	}
	ph.pool = poolKey{seed: sc.Seed, samples: sc.Samples}
	if ph.Seed != 0 {
		ph.pool.seed = ph.Seed
	}
	if ph.Samples != 0 {
		ph.pool.samples = ph.Samples
	}
	requests := 0
	if len(ph.Streams) == 0 {
		return fmt.Errorf("no streams")
	}
	for si, st := range ph.Streams {
		if _, ok := sc.Tenants[st.Tenant]; st.Tenant != "" && !ok {
			return fmt.Errorf("stream %d: tenant %q not in the scenario's tenants map", si, st.Tenant)
		}
		if st.Clients < 1 || st.Requests < 1 {
			return fmt.Errorf("stream %d: clients and requests must be >= 1", si)
		}
		if st.Expect != 0 && (st.Expect < 100 || st.Expect > 599) {
			return fmt.Errorf("stream %d: expect %d is not an HTTP status", si, st.Expect)
		}
		for kind, w := range st.Traffic {
			if !slices.Contains(trafficOrder[:], kind) {
				return fmt.Errorf("stream %d: unknown traffic kind %q", si, kind)
			}
			if w < 0 {
				return fmt.Errorf("stream %d: negative weight for %q", si, kind)
			}
		}
		if _, ok := kindCounts(st.Traffic, st.Requests); !ok {
			return fmt.Errorf("stream %d: %d requests cannot give every weighted traffic kind one", si, st.Requests)
		}
		requests += st.Requests
	}
	for _, a := range ph.Actions {
		if len(a) != 1 {
			return fmt.Errorf("an action is a one-key object, got %d keys", len(a))
		}
		for kind, arg := range a {
			switch kind {
			case "reload":
				if t.gateway {
					return fmt.Errorf("reload needs a replica target, not the gateway")
				}
				if arg < 1 || requests < arg+1 {
					return fmt.Errorf("reload %d needs 1 <= N < the phase's %d requests", arg, requests)
				}
			case "sighup", "sigkill":
				if arg < 0 || arg >= len(killed) {
					return fmt.Errorf("%s: replica %d outside the %d-replica fleet", kind, arg, len(killed))
				}
				if killed[arg] {
					return fmt.Errorf("%s: replica %d was already killed", kind, arg)
				}
				if kind == "sigkill" {
					killed[arg] = true
				}
			default:
				return fmt.Errorf("unknown action %q", kind)
			}
			ph.actions = append(ph.actions, action{kind: kind, arg: arg})
		}
	}
	alive := 0
	for _, k := range killed {
		if !k {
			alive++
		}
	}
	if alive == 0 {
		return fmt.Errorf("sigkill would leave no replica running")
	}
	if !t.gateway && killed[t.replica] {
		return fmt.Errorf("target %s is killed", t)
	}
	if err := ph.Thresholds.validate(); err != nil {
		return fmt.Errorf("thresholds: %w", err)
	}
	if ph.Thresholds.ScaleOut != nil {
		return fmt.Errorf("scale_out is a scenario-level threshold")
	}
	return nil
}

// parseTarget resolves a phase target against the fleet.
func (sc *scenarioFile) parseTarget(s string) (target, error) {
	switch {
	case s == "" && sc.Fleet.Gateway, s == "gateway" && sc.Fleet.Gateway:
		return target{gateway: true}, nil
	case s == "":
		return target{}, nil
	case strings.HasPrefix(s, "replica:"):
		i, err := strconv.Atoi(strings.TrimPrefix(s, "replica:"))
		if err == nil && i >= 0 && i < sc.Fleet.Replicas {
			return target{replica: i}, nil
		}
	}
	return target{}, fmt.Errorf("target %q names no process of the fleet", s)
}

func (t *thresholds) validate() error {
	for name, v := range map[string]*float64{
		"max_p99_ms": t.MaxP99Ms, "max_shed_rate": t.MaxShedRate,
		"max_error_rate": t.MaxErrorRate, "min_correctness": t.MinCorrectness,
		"fairness_max_delta": t.FairnessMaxDelta, "max_attack_fail_rate": t.MaxAttackFailRate,
		"min_hit_ratio": t.MinHitRatio,
	} {
		if v != nil && *v < 0 {
			return fmt.Errorf("%s must be >= 0", name)
		}
	}
	return nil
}
