package serve

import (
	"testing"
	"time"
)

// fakeClock is an injectable clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeBreaker(threshold int, cooldown time.Duration) (*breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1, 0)}
	b := newBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	b, _ := newFakeBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("breaker closed after %d failures (threshold 3)", i)
		}
		b.Failure()
	}
	if b.State() != circuitClosed {
		t.Fatalf("state after 2 failures = %s, want closed", b.State())
	}
	b.Failure() // third consecutive failure
	if b.State() != circuitOpen {
		t.Fatalf("state after 3 failures = %s, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request inside the cooldown")
	}
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newFakeBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success() // streak broken
	b.Failure()
	b.Failure()
	if b.State() != circuitClosed {
		t.Fatalf("state = %s, want closed (streak was reset)", b.State())
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newFakeBreaker(1, time.Second)
	b.Failure() // open
	if b.Allow() {
		t.Fatal("admitted during cooldown")
	}
	clk.advance(time.Second)
	if b.State() != circuitHalfOpen {
		t.Fatalf("state after cooldown = %s, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
}

func TestBreakerProbeSuccessCloses(t *testing.T) {
	b, clk := newFakeBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Success()
	if b.State() != circuitClosed {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused a request")
	}
}

func TestBreakerProbeFailureRestartsCooldown(t *testing.T) {
	b, clk := newFakeBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure() // failed probe
	if b.State() != circuitOpen {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("admitted immediately after a failed probe")
	}
	clk.advance(time.Second) // a fresh full cooldown is required
	if !b.Allow() {
		t.Fatal("probe refused after the restarted cooldown")
	}
	// A failed probe does not increment opens (it never closed).
	if b.Opens() != 1 {
		t.Fatalf("opens = %d, want 1", b.Opens())
	}
}

// TestBreakerAbandonedProbeReArms: a probe admitted and never reported (its
// request expired, was request-caused or panicked) holds the half-open slot
// for one cooldown only; then the next Allow admits a fresh probe, whose
// success closes the circuit.
func TestBreakerAbandonedProbeReArms(t *testing.T) {
	b, clk := newFakeBreaker(1, time.Second)
	b.Failure() // open
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// No Success, no Failure: the probe is abandoned.
	if b.State() != circuitHalfOpen {
		t.Fatalf("state with a probe out = %s, want half-open", b.State())
	}
	clk.advance(time.Second - time.Millisecond)
	if b.Allow() {
		t.Fatal("admitted a second probe inside the abandoned probe's window")
	}
	clk.advance(time.Millisecond)
	if !b.Allow() {
		t.Fatal("an abandoned probe wedged the circuit: no probe admitted one cooldown later")
	}
	b.Success()
	if b.State() != circuitClosed {
		t.Fatalf("state after the re-armed probe succeeded = %s, want closed", b.State())
	}
}
