package serve

import (
	"sync"
	"time"
)

// Circuit-breaker states, exported through /metrics and /healthz as
// strings.
const (
	circuitClosed   = "closed"    // backend trusted: all requests try it
	circuitOpen     = "open"      // backend distrusted: requests skip it
	circuitHalfOpen = "half-open" // probing: one request at a time tests recovery
)

// breaker is a consecutive-failure circuit breaker guarding the cluster
// backend. A degraded cluster fails run after run while each failure costs
// RPC deadlines and retries; after threshold consecutive failures the
// breaker opens and requests go straight to the next backend, the local
// fallback or (with RequireCluster) a typed 503. After cooldown one probe
// run is admitted (half-open); its success closes the circuit, its failure
// re-opens it for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable clock for tests

	mu       sync.Mutex
	failures int // consecutive failures while closed
	// openAt starts the current cooldown window: when the breaker opened,
	// or last admitted or failed a probe.
	openAt  time.Time
	open    bool
	probing bool // a half-open probe was admitted and has no verdict yet
	opens   int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a cluster attempt may proceed. In the open state
// it admits exactly one probe per cooldown window — the only way an open
// circuit closes. The caller should report that probe's outcome via
// Success or Failure; a probe abandoned without a verdict (the request's
// own context expired mid-run, it was request-caused, or it panicked)
// just lets its window run out, and the next probe is admitted one
// cooldown after it.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Sub(b.openAt) < b.cooldown {
		return false
	}
	b.probing = true
	b.openAt = b.now()
	return true
}

// Success records a cluster run that completed: closes the circuit and
// resets the failure streak.
func (b *breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.open = false
	b.probing = false
}

// Failure records a cluster run that failed; threshold consecutive
// failures (or one failed half-open probe) open the circuit.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.open {
		// Failed probe: restart the cooldown window.
		b.probing = false
		b.openAt = b.now()
		return
	}
	b.failures++
	if b.failures >= b.threshold {
		b.open = true
		b.probing = false
		b.openAt = b.now()
		b.opens++
	}
}

// State reports the current state string for metrics and health.
func (b *breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return circuitClosed
	}
	if b.probing || b.now().Sub(b.openAt) >= b.cooldown {
		return circuitHalfOpen
	}
	return circuitOpen
}

// Opens reports how many times the circuit has opened.
func (b *breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
