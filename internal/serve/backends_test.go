package serve

import (
	"context"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

// failoverOptions disable the engine's own fallback and beat fast, so killing
// its dialers makes an engine fail typed (ErrDegraded) instead of silently
// absorbing work locally.
var failoverOptions = cluster.Options{
	RPCTimeout:        2 * time.Second,
	DialTimeout:       2 * time.Second,
	Retries:           1,
	RetryBackoff:      10 * time.Millisecond,
	HeartbeatInterval: 50 * time.Millisecond,
	DisableFallback:   true,
}

// newFailoverCluster is newPipeCluster over the shared fixture's parameters
// with failoverOptions.
func newFailoverCluster(t *testing.T, n int) (*cluster.Engine, []*cluster.PipeDialer) {
	t.Helper()
	return newPipeCluster(t, testEnv(t).Params, n, failoverOptions)
}

// TestBackendFailover: with two independent cluster backends, killing the
// primary's every worker moves traffic to the secondary within the same
// request (no wrong or failed decrypts), reviving it restores full health,
// and killing the secondary fails traffic back.
func TestBackendFailover(t *testing.T) {
	reg := testEnv(t)
	engA, dialersA := newFailoverCluster(t, 2)
	engB, dialersB := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 2,
		CircuitCooldown:  200 * time.Millisecond,
		Backends:         []BackendSpec{{Name: "east", Engine: engA}, {Name: "west", Engine: engB}},
	})
	defer closeCoreT(t, core)
	ctx := context.Background()

	submitVerified := func(seed int64) {
		t.Helper()
		ct, _ := encryptRandom(t, seed)
		out, err := core.Submit(ctx, "square", testTenant, ct)
		if err != nil {
			t.Fatalf("Submit(seed %d): %v", seed, err)
		}
		want := decryptDecode(t, reference(t, "square", ct))
		if e := maxSlotErr(decryptDecode(t, out), want); e > 1e-2 {
			t.Fatalf("wrong decrypt after seed %d: max slot err %g", seed, e)
		}
	}

	submitVerified(1) // warm: primary (east) serves
	h := core.Health()
	if len(h.Backends) != 2 {
		t.Fatalf("healthz backends = %d, want 2", len(h.Backends))
	}
	for _, bh := range h.Backends {
		if bh.Workers != 2 || bh.Healthy != 2 || bh.Circuit != "closed" {
			t.Fatalf("backend %q not healthy at warm-up: %+v", bh.Name, bh)
		}
		if bh.LastHandshakeMs < 0 {
			t.Fatalf("backend %q reports no handshake after serving", bh.Name)
		}
	}

	for _, d := range dialersA {
		d.Kill()
	}
	// The very next submission must succeed — east fails, the chunk loop
	// moves to west — and decrypt correctly.
	submitVerified(2)
	if got := core.met.Failovers.Load(); got < 1 {
		t.Fatalf("failovers_total = %d, want >= 1", got)
	}
	h = core.Health()
	var east, west BackendHealth
	for _, bh := range h.Backends {
		switch bh.Name {
		case "east":
			east = bh
		case "west":
			west = bh
		}
	}
	if !west.Primary || east.Primary {
		t.Fatalf("primary did not move: east=%+v west=%+v", east, west)
	}

	// Revive east: heartbeat redials (with jittered backoff) and the
	// recovery loop re-warms keys; it must return to full health.
	for _, d := range dialersA {
		d.Revive()
	}
	deadline := time.Now().Add(10 * time.Second)
	for engA.HealthyWorkers() != engA.NChips() {
		if time.Now().After(deadline) {
			t.Fatalf("east never recovered: %d/%d workers healthy", engA.HealthyWorkers(), engA.NChips())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill west: traffic fails back to the recovered east, still correct.
	for _, d := range dialersB {
		d.Kill()
	}
	before := core.met.Failovers.Load()
	submitVerified(3)
	if got := core.met.Failovers.Load(); got <= before {
		t.Fatalf("failovers_total did not advance on fail-back: %d -> %d", before, got)
	}
	for _, d := range dialersB {
		d.Revive()
	}
}

// TestBackendsAllDownRequireCluster: with every backend dead and fallback
// forbidden, submissions fail typed with cluster.ErrDegraded (503), and
// /healthz flips unhealthy.
func TestBackendsAllDownRequireCluster(t *testing.T) {
	reg := testEnv(t)
	eng, dialers := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 2,
		CircuitCooldown:  time.Minute,
		Backends:         []BackendSpec{{Name: "only", Engine: eng}},
	})
	defer closeCoreT(t, core)

	ct, _ := encryptRandom(t, 4)
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	for _, d := range dialers {
		d.Kill()
	}
	var lastErr error
	for i := 0; i < 5; i++ {
		_, lastErr = core.Submit(context.Background(), "square", testTenant, ct)
		if lastErr == nil {
			t.Fatal("submit succeeded with the whole backend set dead and fallback off")
		}
	}
	// Health must report the outage once no healthy workers remain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := core.Health(); !h.OK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz stayed OK with every backend dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, d := range dialers {
		d.Revive()
	}
}
