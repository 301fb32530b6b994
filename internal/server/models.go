// The resident-model snapshot: every request path — buffered scan batch,
// streaming scan, attack-oracle query, health probe — resolves the model set
// through one atomic load of a *modelSet, an immutable per-generation view.
// A handler that loads the snapshot keeps it for the whole request, so a hot
// reload landing mid-flight can never mix generations inside one response:
// in-flight work finishes on the old snapshot while new work sees the new
// one, with no locks on the hot path.
package server

import (
	"mpass/internal/detect"
	"mpass/internal/engine"
)

// modelSet is one resident model generation, frozen at build time. The
// embedded engine set supplies names, lookups, and the version that keys the
// score cache and stamps scan responses, job records, and /healthz.
type modelSet struct {
	*engine.Set

	// streamers serve the streaming scan path, resolved once per
	// generation: non-nil only when every member can stream.
	streamers []detect.Streamer
}

// snap loads the active model generation. Callers hold the returned pointer
// for the whole request so one request never spans a swap.
func (s *Server) snap() *modelSet { return s.models.Load() }

// newModelSet builds the serving snapshot for one engine-set generation.
// streamOff leaves the streaming path unresolved, so every scan takes the
// buffered pipeline.
func newModelSet(es *engine.Set, streamOff bool) *modelSet {
	ms := &modelSet{Set: es}
	if !streamOff {
		ms.resolveStreamers()
	}
	return ms
}

// resolveStreamers fills streamers when every member supports the
// streaming path; otherwise it stays nil.
func (ms *modelSet) resolveStreamers() {
	streamers := make([]detect.Streamer, ms.Len())
	for i, d := range ms.Drivers() {
		st, ok := engine.StreamerOf(d)
		if !ok {
			return
		}
		streamers[i] = st
	}
	ms.streamers = streamers
}

// engineHealth snapshots per-engine name/version/health for /healthz and the
// reload response.
func (ms *modelSet) engineHealth() []EngineHealth {
	out := make([]EngineHealth, ms.Len())
	for i, d := range ms.Drivers() {
		out[i] = EngineHealth{Name: d.Name(), Version: d.Version(), Healthy: true}
		if err := d.Health(); err != nil {
			out[i].Healthy = false
			out[i].Error = err.Error()
		}
	}
	return out
}
