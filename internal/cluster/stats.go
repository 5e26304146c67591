package cluster

import (
	"sync/atomic"

	"cinnamon/internal/telemetry"
)

// Stats are the transport-layer counters of the cluster runtime. Byte
// counts come from the connection wrappers (every frame byte on the wire),
// collective and limb counts from the keyswitch collectives themselves —
// the measured replacement for the analytic communication model.
type Stats struct {
	BytesSent     atomic.Int64
	BytesReceived atomic.Int64

	Broadcasts   atomic.Int64 // input-broadcast collectives completed
	Aggregations atomic.Int64 // aggregate-and-scatter operations completed
	LimbsMoved   atomic.Int64 // limbs that crossed a chip boundary (paper units)

	KeyPushes    atomic.Int64 // evaluation keys shipped to workers
	KeyEvicts    atomic.Int64 // keys invalidated on workers after a coordinator eviction
	KeysResident atomic.Int64 // gauge: pushed keys held by live worker sessions, summed over links
	Reconnects   atomic.Int64 // worker sessions re-established after loss
	Heartbeats   atomic.Int64 // ping/pong round trips

	collectiveLat telemetry.Histogram // one observation per distributed collective
}

// Snapshot is the JSON view of the cluster counters, exported through the
// serving /metrics endpoint.
type Snapshot struct {
	Workers int `json:"workers"`
	Healthy int `json:"healthy"`

	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`

	Broadcasts   int64 `json:"broadcasts"`
	Aggregations int64 `json:"aggregations"`
	LimbsMoved   int64 `json:"limbs_moved"`

	KeyPushes int64 `json:"key_pushes"`
	KeyEvicts int64 `json:"key_evicts"`
	// KeysResident is a gauge: the keys the live worker sessions hold, one
	// count per (key, worker) pair.
	KeysResident int64 `json:"keys_resident"`
	Reconnects   int64 `json:"reconnects"`
	// LocalFallbacks is vestigial and always zero: the engine has no local
	// fallback — a collective that loses a worker fails with ErrDegraded. It
	// stays, with its JSON key, only because the frozen benchmark (bench/,
	// cluster.local_fallbacks) reads it; drop it once a benchmark PR drops
	// that metric.
	LocalFallbacks int64 `json:"local_fallbacks"`
	Heartbeats     int64 `json:"heartbeats"`

	// CorruptFrames is process-wide (see CorruptFrames()): every frame
	// whose CRC-32C trailer failed verification, on either side of the
	// wire. Nonzero here with zero wrong results is the integrity story.
	CorruptFrames int64 `json:"corrupt_frames_detected"`

	CollectiveLatency telemetry.LatencySummary `json:"collective_latency"`
}

func (s *Stats) snapshot() Snapshot {
	return Snapshot{
		BytesSent:         s.BytesSent.Load(),
		BytesReceived:     s.BytesReceived.Load(),
		Broadcasts:        s.Broadcasts.Load(),
		Aggregations:      s.Aggregations.Load(),
		LimbsMoved:        s.LimbsMoved.Load(),
		KeyPushes:         s.KeyPushes.Load(),
		KeyEvicts:         s.KeyEvicts.Load(),
		KeysResident:      s.KeysResident.Load(),
		Reconnects:        s.Reconnects.Load(),
		Heartbeats:        s.Heartbeats.Load(),
		CorruptFrames:     CorruptFrames(),
		CollectiveLatency: s.collectiveLat.Summary(),
	}
}
