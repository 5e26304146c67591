package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/cluster"
)

// failoverOptions retry and beat fast, so an engine whose dialers were killed
// fails typed (ErrDegraded) promptly and a revived one is redialed promptly.
var failoverOptions = cluster.Options{
	RPCTimeout:        2 * time.Second,
	DialTimeout:       2 * time.Second,
	RetryBackoff:      10 * time.Millisecond,
	HeartbeatInterval: 50 * time.Millisecond,
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
		ct, in := encryptRandom(t, seed)
		out, err := core.Submit(ctx, "square", testTenant, ct)
		if err != nil {
			t.Fatalf("Submit(seed %d): %v", seed, err)
		}
		if e, tol := plainErr(t, "square", in, out); e > tol {
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

	// Revive east: its heartbeat redials (with jittered backoff); it must
	// return to full health.
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

// TestHealthzAllBackendsDown: two backends, both dead. Without RequireCluster
// requests still succeed through the local replay, so /healthz must say ok —
// a 503 there beside a 200 on the run endpoint would take a serving replica
// out of rotation; with RequireCluster the same outage is ok=false.
func TestHealthzAllBackendsDown(t *testing.T) {
	reg := testEnv(t)
	for _, require := range []bool{false, true} {
		engA, dialersA := newFailoverCluster(t, 2)
		engB, dialersB := newFailoverCluster(t, 2)
		core := NewCore(reg, Config{
			Workers:        1,
			RequireCluster: require,
			Backends:       []BackendSpec{{Name: "east", Engine: engA}, {Name: "west", Engine: engB}},
		})
		for _, d := range append(dialersA, dialersB...) {
			d.Kill()
		}
		deadline := time.Now().Add(5 * time.Second)
		for engA.HealthyWorkers()+engB.HealthyWorkers() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("the heartbeats never marked the killed workers unhealthy")
			}
			time.Sleep(10 * time.Millisecond)
		}
		h := core.Health()
		if len(h.Backends) != 2 || h.Backends[0].Healthy != 0 || h.Backends[1].Healthy != 0 {
			t.Fatalf("require=%v: health backends = %+v, want two with no healthy worker", require, h.Backends)
		}
		ct, in := encryptRandom(t, 5)
		out, err := core.Submit(context.Background(), "square", testTenant, ct)
		if require {
			if h.OK || !errors.Is(err, cluster.ErrDegraded) {
				t.Fatalf("RequireCluster, every backend dead: ok=%v, submit error %v; want ok=false and ErrDegraded", h.OK, err)
			}
		} else {
			if !h.OK || err != nil {
				t.Fatalf("every backend dead, local replay allowed: ok=%v, submit error %v; want ok=true and success", h.OK, err)
			}
			if e, tol := plainErr(t, "square", in, out); e > tol {
				t.Fatalf("local replay decrypts wrong: max slot err %g", e)
			}
			if got := core.Metrics().EmulatorFallbacks.Load(); got != 1 {
				t.Fatalf("emulator_fallbacks = %d, want 1", got)
			}
		}
		closeCoreT(t, core)
	}
}

// TestRecoveredBackendPushesLazily: recovery after a whole-backend loss is
// the engine heartbeat's redial and nothing else — no key traffic while the
// revived backend idles, however many heartbeats pass — and the first
// request after it pushes only the keys its own program needs (square: the
// relinearization key, once per worker), with output limb-identical to the
// local executor.
func TestRecoveredBackendPushesLazily(t *testing.T) {
	reg := testEnv(t)
	eng, dialers := newFailoverCluster(t, 2)
	core := NewCore(reg, Config{
		Workers:         1,
		RequireCluster:  true,
		CircuitCooldown: 200 * time.Millisecond,
		Backends:        []BackendSpec{{Engine: eng}},
	})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 815)
	if _, err := core.Submit(context.Background(), "square", testTenant, ct); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	before := eng.Snapshot()

	waitWorkers := func(want int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); eng.HealthyWorkers() != want; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d/%d workers healthy, want %d", eng.HealthyWorkers(), eng.NChips(), want)
			}
		}
	}
	for _, d := range dialers {
		d.Kill()
	}
	waitWorkers(0)
	for _, d := range dialers {
		d.Revive()
	}
	waitWorkers(eng.NChips())
	time.Sleep(6 * failoverOptions.HeartbeatInterval)

	idle := eng.Snapshot()
	if idle.Reconnects <= before.Reconnects {
		t.Fatalf("reconnects %d -> %d: the heartbeat never redialed", before.Reconnects, idle.Reconnects)
	}
	if idle.KeyPushes != before.KeyPushes {
		t.Fatalf("key pushes %d -> %d while the recovered backend idled: keys were re-pushed with no request", before.KeyPushes, idle.KeyPushes)
	}

	out, err := core.Submit(context.Background(), "square", testTenant, ct)
	if err != nil {
		t.Fatalf("first submit after recovery: %v", err)
	}
	if got, want := eng.Snapshot().KeyPushes-idle.KeyPushes, int64(eng.NChips()); got != want {
		t.Fatalf("first request after recovery pushed %d keys, want %d (square's relinearization key, once per worker)", got, want)
	}
	sameCiphertext(t, "first request after recovery vs local executor", out, runLocally(t, "square", ct))
}

// TestAbandonedProbeReArms: a half-open probe whose request context expires
// mid-run reports no verdict to the breaker. It must not wedge the circuit:
// one cooldown later the next request is admitted as a fresh probe, runs on
// the backend and closes the circuit.
func TestAbandonedProbeReArms(t *testing.T) {
	reg := testEnv(t)
	var armed atomic.Bool
	probeCtx, cancelProbe := context.WithCancel(context.Background())
	defer cancelProbe()
	ds := make([]cluster.Dialer, 2)
	for i := range ds {
		ds[i] = writeHookDialer{
			Dialer: cluster.NewPipeDialer(cluster.NewWorker(reg.Params)),
			onWrite: func() {
				if armed.CompareAndSwap(true, false) {
					cancelProbe() // the probe's client goes away mid-run
				}
			},
		}
	}
	// A silent wire: an hour between heartbeats, so no ping takes the hook.
	eng, err := cluster.NewEngine(reg.Params, ds, cluster.Options{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatalf("cluster.NewEngine: %v", err)
	}
	defer eng.Close()
	const cooldown = 100 * time.Millisecond
	core := NewCore(reg, Config{
		Workers:          1,
		RequireCluster:   true,
		CircuitThreshold: 1,
		CircuitCooldown:  cooldown,
		Backends:         []BackendSpec{{Engine: eng}},
	})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 816)
	// Warm: push rotsum's keys, so the probe's first write is a collective.
	if _, err := core.Submit(context.Background(), "rotsum", testTenant, ct); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	brk := core.backends.all[0].brk
	brk.Failure() // threshold 1: the circuit is open

	time.Sleep(cooldown)
	armed.Store(true)
	_, err = core.Submit(probeCtx, "rotsum", testTenant, ct)
	if armed.Load() {
		t.Fatal("the probe never reached the wire")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("probe error = %v, want context.Canceled", err)
	}
	if st := brk.State(); st == circuitClosed {
		t.Fatal("an abandoned probe closed the circuit")
	}

	time.Sleep(cooldown)
	out, err := core.Submit(context.Background(), "rotsum", testTenant, ct)
	if err != nil {
		t.Fatalf("request one cooldown after the abandoned probe: %v", err)
	}
	if st := brk.State(); st != circuitClosed {
		t.Fatalf("circuit %s after a successful probe, want closed", st)
	}
	sameCiphertext(t, "re-armed probe vs local executor", out, runLocally(t, "rotsum", ct))
}
