package serve

import (
	"sync/atomic"
	"time"

	"cinnamon/internal/cluster"
	"cinnamon/internal/telemetry"
)

// Histogram is the shared streaming latency histogram (see
// internal/telemetry); aliased here so the serving API is unchanged.
type Histogram = telemetry.Histogram

// LatencySummary is the JSON-facing quantile snapshot, in milliseconds.
type LatencySummary = telemetry.LatencySummary

// ProgramMetrics tracks one program's counters and latencies.
type ProgramMetrics struct {
	Completed atomic.Int64
	Errors    atomic.Int64
	Latency   Histogram
}

// Metrics is the serving-core metrics surface. All fields are updated
// with atomics; Snapshot() is safe to call concurrently with traffic.
type Metrics struct {
	Received  atomic.Int64 // requests accepted into Submit
	Completed atomic.Int64 // responses delivered
	Rejected  atomic.Int64 // load-shed (queue full / shutting down)
	Timeouts  atomic.Int64 // request context expired before completion
	Errors    atomic.Int64 // execution failures

	QueueDepth atomic.Int64 // executions currently waiting for a worker slot
	OneShots   atomic.Int64 // one-shots that reached execution

	Latency Histogram

	// EmulatorFallbacks counts cluster-mode requests that were re-executed
	// with local keyswitching because no backend could serve them
	// (degraded, circuit open, or the distributed run errored) — the one
	// degradation counter: the cluster engine has no fallback of its own.
	// The name — and the emulator_fallbacks JSON key — predate the single
	// executor; they are kept for the scripts and dashboards that read them.
	EmulatorFallbacks atomic.Int64

	// Panics counts recovered execution panics (each fails its own request
	// typed with ErrInternal; every other request keeps serving).
	Panics atomic.Int64

	// Refresh counters: ciphertexts bootstrapped, and one bootstrap's wall
	// time.
	Bootstraps  atomic.Int64
	BootstrapMs Histogram

	// Session counters.
	SessionsActive  atomic.Int64
	SessionsCreated atomic.Int64
	SessionsEvicted atomic.Int64
	SessionSteps    atomic.Int64

	// Failure-domain counters: Failovers counts primary-backend switches
	// (a request completing on a different failure domain than the last),
	// SessionRestores sessions replayed from the checkpoint log at boot,
	// SessionLogErrors failed checkpoint appends (the step still succeeds;
	// durability of that step is lost until the next one).
	Failovers        atomic.Int64
	SessionRestores  atomic.Int64
	SessionLogErrors atomic.Int64

	programs map[string]*ProgramMetrics // fixed at startup, values atomic

	// backendsSource, when set (NewCore in cluster mode), enumerates every
	// backend with its own circuit and transport view — the primary's
	// transport counters also fill Snapshot.Cluster; keyCacheSource
	// snapshots the budgeted tenant-key tier.
	backendsSource func() []BackendSnapshot
	keyCacheSource func() KeyCacheStats
}

func newMetrics(programNames []string) *Metrics {
	m := &Metrics{programs: map[string]*ProgramMetrics{}}
	for _, name := range programNames {
		m.programs[name] = &ProgramMetrics{}
	}
	return m
}

// ProgramSnapshot is one program's JSON view.
type ProgramSnapshot struct {
	Completed int64          `json:"completed"`
	Errors    int64          `json:"errors"`
	Latency   LatencySummary `json:"latency"`
}

// Snapshot is the JSON view served at GET /metrics.
type Snapshot struct {
	Received   int64 `json:"received"`
	Completed  int64 `json:"completed"`
	Rejected   int64 `json:"rejected"`
	Timeouts   int64 `json:"timeouts"`
	Errors     int64 `json:"errors"`
	QueueDepth int64 `json:"queue_depth"`
	// Batches and BatchedRequests are vestigial: the request batcher is
	// gone and both count the one-shot requests that reached execution.
	// They stay, with their JSON keys, only because the frozen benchmark
	// (bench/, serve.batch_occupancy) reads them; once a benchmark PR drops
	// that metric, drop both along with RegistryConfig.MaxBatch.
	Batches         int64                      `json:"batches"`
	BatchedRequests int64                      `json:"batched_requests"`
	Latency         LatencySummary             `json:"latency"`
	Programs        map[string]ProgramSnapshot `json:"programs"`

	// Cluster holds the scale-out transport counters when the core runs in
	// cluster mode (bytes, collectives, latency quantiles, reconnects): a
	// copy of the current primary's Backends[].Cluster, kept because the
	// frozen benchmark (bench/) and cinnamon-loadgen read it. Backends
	// enumerates every failure domain with its own circuit state, opens
	// count, last-handshake age and transport counters.
	Cluster           *cluster.Snapshot `json:"cluster,omitempty"`
	Backends          []BackendSnapshot `json:"backends,omitempty"`
	EmulatorFallbacks int64             `json:"emulator_fallbacks,omitempty"`
	Failovers         int64             `json:"failovers_total"`

	Panics int64 `json:"panics"`

	// Refreshes: Bootstraps counts them, BootstrapMs is one refresh's
	// wall-time quantiles. BootstrapBatches is vestigial — there are no
	// ticks, it repeats Bootstraps — and stays, with its JSON key, only
	// because the frozen benchmark (bench/, sched.tick_size_mean) reads it;
	// drop it once a benchmark PR drops that metric.
	Bootstraps       int64           `json:"bootstraps_total"`
	BootstrapBatches int64           `json:"bootstrap_batches"`
	BootstrapMs      *LatencySummary `json:"bootstrap_ms,omitempty"`

	SessionsActive  int64 `json:"sessions_active"`
	SessionsCreated int64 `json:"sessions_created"`
	SessionsEvicted int64 `json:"sessions_evicted"`
	SessionSteps    int64 `json:"session_steps"`

	// Durable-session counters: restores replayed from the checkpoint log
	// at boot, and failed checkpoint appends since.
	SessionRestores  int64 `json:"session_restores_total"`
	SessionLogErrors int64 `json:"session_log_errors,omitempty"`

	// KeyCache reports the budgeted tenant-key tier: resident/spilled
	// tenant counts, resident bytes vs budget, hit/miss/eviction counters
	// and cold-miss stalls with their latency quantiles.
	// Workers hold what this cache holds: the cluster transport counters
	// show the worker side (key_evicts, and the keys_resident gauge).
	KeyCache *KeyCacheStats `json:"key_cache,omitempty"`
}

// ObserveBootstrap records one refresh and its wall time.
func (m *Metrics) ObserveBootstrap(d time.Duration) {
	m.Bootstraps.Add(1)
	m.BootstrapMs.Observe(d)
}

// Snapshot captures the current metric values.
func (m *Metrics) Snapshot() Snapshot {
	oneShots := m.OneShots.Load()
	s := Snapshot{
		Received:        m.Received.Load(),
		Completed:       m.Completed.Load(),
		Rejected:        m.Rejected.Load(),
		Timeouts:        m.Timeouts.Load(),
		Errors:          m.Errors.Load(),
		QueueDepth:      m.QueueDepth.Load(),
		Batches:         oneShots,
		BatchedRequests: oneShots,
		Latency:         m.Latency.Summary(),
		Programs:        map[string]ProgramSnapshot{},
	}
	s.Panics = m.Panics.Load()
	if m.backendsSource != nil {
		s.Backends = m.backendsSource()
		s.EmulatorFallbacks = m.EmulatorFallbacks.Load()
		for _, b := range s.Backends {
			if b.Primary {
				s.Cluster = b.Cluster
			}
		}
	}
	if m.keyCacheSource != nil {
		kc := m.keyCacheSource()
		s.KeyCache = &kc
	}
	s.Failovers = m.Failovers.Load()
	s.SessionRestores = m.SessionRestores.Load()
	s.SessionLogErrors = m.SessionLogErrors.Load()
	for name, pm := range m.programs {
		s.Programs[name] = ProgramSnapshot{
			Completed: pm.Completed.Load(),
			Errors:    pm.Errors.Load(),
			Latency:   pm.Latency.Summary(),
		}
	}
	s.Bootstraps = m.Bootstraps.Load()
	s.BootstrapBatches = s.Bootstraps
	if s.Bootstraps > 0 {
		sum := m.BootstrapMs.Summary()
		s.BootstrapMs = &sum
	}
	s.SessionsActive = m.SessionsActive.Load()
	s.SessionsCreated = m.SessionsCreated.Load()
	s.SessionsEvicted = m.SessionsEvicted.Load()
	s.SessionSteps = m.SessionSteps.Load()
	return s
}
