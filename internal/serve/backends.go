package serve

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"cinnamon/internal/cluster"
)

// BackendSpec names one cluster backend of the serving core. A backend is
// an independently-dialed cluster.Engine — its own worker set, its own
// failure domain. The core wraps each in its own circuit breaker and fails
// requests over between them.
type BackendSpec struct {
	// Name identifies the backend in /healthz and /metrics. Empty names
	// default to "c<index>".
	Name string
	// Engine is the dialed cluster coordinator. The core does not own it:
	// whoever built the engine closes it.
	Engine *cluster.Engine
}

// backend pairs one engine with its breaker.
type backend struct {
	idx  int
	name string
	eng  *cluster.Engine
	brk  *breaker
}

// backendSet is the failure-domain layer between the serving core and N
// cluster engines: health-ranked backend selection, per-backend circuit
// breaking and failover accounting. It owns no goroutine and no recovery
// schedule: after a loss each engine's heartbeat redials its workers, the
// breaker's own half-open probe readmits the backend, and keys go back to a
// rejoined worker lazily, with the first collective that needs them.
type backendSet struct {
	all     []*backend
	primary atomic.Int32 // index of the backend that served last
	met     *Metrics
}

func newBackendSet(specs []BackendSpec, met *Metrics, threshold int, cooldown time.Duration) *backendSet {
	s := &backendSet{met: met}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("c%d", i)
		}
		s.all = append(s.all, &backend{idx: i, name: name, eng: spec.Engine, brk: newBreaker(threshold, cooldown)})
	}
	return s
}

// primaryBackend returns the backend that most recently served a request.
func (s *backendSet) primaryBackend() *backend {
	return s.all[int(s.primary.Load())]
}

// ranked returns the backends in failover order: fully-healthy engines
// first, then by healthy-worker count, with the current primary winning
// ties (stickiness — no failover ping-pong between two equals) and index
// order breaking the rest. Breaker gating happens at attempt time via
// Allow, not here, because Allow has half-open probe side effects.
func (s *backendSet) ranked() []*backend {
	out := make([]*backend, len(s.all))
	copy(out, s.all)
	prim := int(s.primary.Load())
	score := func(b *backend) (int, int) {
		healthy := b.eng.HealthyWorkers()
		full := 0
		if healthy == b.eng.NChips() && healthy > 0 {
			full = 1
		}
		return full, healthy
	}
	sort.SliceStable(out, func(i, j int) bool {
		fi, hi := score(out[i])
		fj, hj := score(out[j])
		if fi != fj {
			return fi > fj
		}
		if hi != hj {
			return hi > hj
		}
		if (out[i].idx == prim) != (out[j].idx == prim) {
			return out[i].idx == prim
		}
		return out[i].idx < out[j].idx
	})
	return out
}

// noteSuccess records which backend served a request. A switch of primary is
// one failover event: the counter tracks every time traffic moved to a
// different failure domain (including moving back after recovery).
func (s *backendSet) noteSuccess(b *backend) {
	b.brk.Success()
	old := s.primary.Swap(int32(b.idx))
	if int(old) != b.idx {
		s.met.Failovers.Add(1)
	}
}

// BackendHealth is one backend's row in /healthz and /metrics.
type BackendHealth struct {
	Name    string `json:"name"`
	Primary bool   `json:"primary"`
	Workers int    `json:"workers"`
	Healthy int    `json:"workers_healthy"`
	Circuit string `json:"circuit_state"`
	Opens   int64  `json:"circuit_opens"`
	// LastHandshakeMs is the age of the backend's most recent successful
	// worker handshake in milliseconds; -1 before any handshake.
	LastHandshakeMs int64 `json:"last_handshake_age_ms"`
}

// BackendSnapshot is the /metrics view: the health row plus the backend's
// full cluster transport counters.
type BackendSnapshot struct {
	BackendHealth
	Cluster *cluster.Snapshot `json:"cluster"`
}

func (b *backend) health(primary bool) BackendHealth {
	h := BackendHealth{
		Name:            b.name,
		Primary:         primary,
		Workers:         b.eng.NChips(),
		Healthy:         b.eng.HealthyWorkers(),
		Circuit:         b.brk.State(),
		Opens:           b.brk.Opens(),
		LastHandshakeMs: -1,
	}
	if hs := b.eng.LastHandshake(); !hs.IsZero() {
		h.LastHandshakeMs = time.Since(hs).Milliseconds()
	}
	return h
}

// healthList enumerates every backend for /healthz.
func (s *backendSet) healthList() []BackendHealth {
	prim := int(s.primary.Load())
	out := make([]BackendHealth, len(s.all))
	for i, b := range s.all {
		out[i] = b.health(b.idx == prim)
	}
	return out
}

// snapshots enumerates every backend with transport counters for /metrics.
func (s *backendSet) snapshots() []BackendSnapshot {
	prim := int(s.primary.Load())
	out := make([]BackendSnapshot, len(s.all))
	for i, b := range s.all {
		out[i] = BackendSnapshot{BackendHealth: b.health(b.idx == prim), Cluster: b.eng.Snapshot()}
	}
	return out
}
