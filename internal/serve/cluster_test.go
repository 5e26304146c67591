package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/keyswitch"
)

// newPipeCluster spins up n in-process workers over net.Pipe transports and
// returns the cluster engine plus the dialers (for killing workers).
func newPipeCluster(t *testing.T, params *ckks.Parameters, n int, opts cluster.Options) (*cluster.Engine, []*cluster.PipeDialer) {
	t.Helper()
	dialers := make([]*cluster.PipeDialer, n)
	ds := make([]cluster.Dialer, n)
	for i := range dialers {
		dialers[i] = cluster.NewPipeDialer(cluster.NewWorker(params))
		ds[i] = dialers[i]
	}
	eng, err := cluster.NewEngine(params, ds, opts)
	if err != nil {
		t.Fatalf("cluster.NewEngine: %v", err)
	}
	t.Cleanup(eng.Close)
	return eng, dialers
}

// newTestCluster is newPipeCluster over the shared fixture's parameters with
// default options.
func newTestCluster(t *testing.T, n int) (*cluster.Engine, []*cluster.PipeDialer) {
	t.Helper()
	return newPipeCluster(t, testEnv(t).Params, n, cluster.Options{})
}

// TestServeClusterModeMatchesLocal: the same request served by a core with
// a cluster backend and by a local-only core must come back bit-identical
// (TestExecutorsAgreeOnCatalog proves it for the whole catalog below the
// core; this checks the core wiring), with the cluster's collectives and
// the unnamed backend visible in metrics and health.
func TestServeClusterModeMatchesLocal(t *testing.T) {
	reg := testEnv(t)
	eng, _ := newTestCluster(t, 3)

	clustered := NewCore(reg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
	local := NewCore(reg, Config{Workers: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		clustered.Close(ctx)
		local.Close(ctx)
	}()

	ct, _ := encryptRandom(t, 4242)
	a, err := clustered.Submit(context.Background(), "quartic", testTenant, ct)
	if err != nil {
		t.Fatalf("quartic via cluster: %v", err)
	}
	b, err := local.Submit(context.Background(), "quartic", testTenant, ct)
	if err != nil {
		t.Fatalf("quartic locally: %v", err)
	}
	sameCiphertext(t, "quartic: cluster core vs local core", a, b)

	snap := clustered.Metrics().Snapshot()
	if snap.Cluster == nil {
		t.Fatal("metrics snapshot missing cluster section in cluster mode")
	}
	if snap.Cluster.Broadcasts == 0 && snap.Cluster.Aggregations == 0 {
		t.Fatal("cluster counters show no collectives despite cluster-mode runs")
	}
	if snap.EmulatorFallbacks != 0 {
		t.Fatalf("healthy cluster run recorded %d local fallbacks", snap.EmulatorFallbacks)
	}
	if len(snap.Backends) != 1 || snap.Backends[0].Circuit != circuitClosed || snap.Backends[0].Cluster != snap.Cluster {
		t.Fatalf("metrics backends = %+v, want one closed row whose transport counters are the cluster section", snap.Backends)
	}
	h := clustered.Health()
	if len(h.Backends) != 1 || h.Backends[0].Name != "c0" || !h.Backends[0].Primary {
		t.Fatalf("health backends = %+v, want one primary named c0", h.Backends)
	}
	if !h.Cluster || h.Backends[0].Workers != 3 {
		t.Fatalf("cluster health regressed: %+v", h)
	}
	if localSnap := local.Metrics().Snapshot(); localSnap.Cluster != nil {
		t.Fatal("local-only core must not report a cluster section")
	}
}

// TestServeClusterFallbackToLocal: with every worker dead the core must
// keep serving correct results with local keyswitching and count the
// fallbacks — from the first post-kill request on: its first collective
// fails typed, and the whole request replays locally, once.
func TestServeClusterFallbackToLocal(t *testing.T) {
	reg := testEnv(t)
	eng, dialers := newTestCluster(t, 3)

	core := NewCore(reg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
	local := NewCore(reg, Config{Workers: 2})
	defer closeCoreT(t, core)
	defer closeCoreT(t, local)

	// Warm run through the cluster, then kill every worker.
	ct, _ := encryptRandom(t, 99)
	if _, err := core.Submit(context.Background(), "quartic", testTenant, ct); err != nil {
		t.Fatalf("warm cluster run: %v", err)
	}
	for _, d := range dialers {
		d.Kill()
	}

	out, err := core.Submit(context.Background(), "quartic", testTenant, ct)
	if err != nil {
		t.Fatalf("degraded-cluster run: %v", err)
	}
	want, err := local.Submit(context.Background(), "quartic", testTenant, ct)
	if err != nil {
		t.Fatal(err)
	}
	sameCiphertext(t, "degraded-cluster run vs local core", out, want)
	snap := core.Metrics().Snapshot()
	if snap.EmulatorFallbacks != 1 {
		t.Fatalf("emulator_fallbacks = %d after the first post-kill request, want 1", snap.EmulatorFallbacks)
	}
	if snap.Cluster == nil || snap.Cluster.Healthy == snap.Cluster.Workers {
		t.Fatalf("cluster snapshot should report lost workers: %+v", snap.Cluster)
	}
}

// writeHookDialer wraps a cluster dialer so a test can act at the exact
// moment the coordinator writes to a worker — i.e. mid-collective.
type writeHookDialer struct {
	cluster.Dialer
	onWrite func()
}

func (d writeHookDialer) Dial(ctx context.Context) (net.Conn, error) {
	conn, err := d.Dialer.Dial(ctx)
	if err != nil {
		return nil, err
	}
	return writeHookConn{Conn: conn, onWrite: d.onWrite}, nil
}

type writeHookConn struct {
	net.Conn
	onWrite func()
}

func (c writeHookConn) Write(p []byte) (int, error) {
	c.onWrite()
	return c.Conn.Write(p)
}

// TestClientExpiryIsolated: two concurrent requests on a cluster backend,
// the first one's context cancelled in the middle of its run. That is
// evidence about one client, nothing else: the second request must complete
// on the cluster, with no local fallback and no breaker failure.
func TestClientExpiryIsolated(t *testing.T) {
	reg := testEnv(t)
	var armed atomic.Bool
	var core *Core
	midRun := make(chan struct{})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	ds := make([]cluster.Dialer, 2)
	for i := range ds {
		ds[i] = writeHookDialer{
			Dialer: cluster.NewPipeDialer(cluster.NewWorker(reg.Params)),
			onWrite: func() {
				if armed.CompareAndSwap(true, false) {
					// First wire write after arming: request 1 is mid-run.
					// Hold it there until request 2 is executing too (the
					// third one-shot, after the warm-up), then cancel it.
					close(midRun)
					for deadline := time.Now().Add(5 * time.Second); core.Metrics().OneShots.Load() < 3 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					cancel1()
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

	core = NewCore(reg, Config{Workers: 2, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, core)

	ct1, _ := encryptRandom(t, 811)
	ct2, _ := encryptRandom(t, 812)
	// Warm: push rotsum's keys, so the only writes after arming are request
	// 1's collectives (no lazy key push).
	if _, err := core.Submit(context.Background(), "rotsum", testTenant, ct2); err != nil {
		t.Fatalf("warm submit: %v", err)
	}
	err1 := make(chan error, 1)
	armed.Store(true)
	go func() {
		_, err := core.Submit(ctx1, "rotsum", testTenant, ct1)
		err1 <- err
	}()
	// Request 1 is alone until its first collective, so it is the one the
	// hook catches; request 2 then runs beside it.
	select {
	case <-midRun:
	case <-time.After(5 * time.Second):
		t.Fatal("request 1 never reached the wire")
	}
	out2, err := core.Submit(context.Background(), "rotsum", testTenant, ct2)
	if err != nil {
		t.Fatalf("request 2 failed alongside request 1's cancellation: %v", err)
	}
	if err := <-err1; !errors.Is(err, context.Canceled) {
		t.Fatalf("request 1 error = %v, want context.Canceled", err)
	}
	sameCiphertext(t, "request 2 vs local executor", out2, runLocally(t, "rotsum", ct2))

	snap := core.Metrics().Snapshot()
	if snap.EmulatorFallbacks != 0 {
		t.Fatalf("emulator_fallbacks = %d: one client's expiry sent work to the local fallback", snap.EmulatorFallbacks)
	}
	if snap.Completed != 2 || snap.Errors != 0 || snap.Timeouts != 1 {
		t.Fatalf("completed/errors/timeouts = %d/%d/%d, want 2/0/1 with the warm-up (a client expiry is not an execution error)", snap.Completed, snap.Errors, snap.Timeouts)
	}
	if snap.Cluster.LocalFallbacks != 0 || snap.Cluster.Reconnects != 0 {
		t.Fatalf("cluster transport disturbed by a client expiry: %+v", snap.Cluster)
	}
	brk := core.backends.primaryBackend().brk
	brk.mu.Lock()
	failures := brk.failures
	brk.mu.Unlock()
	if failures != 0 || brk.State() != circuitClosed {
		t.Fatalf("breaker recorded %d failure(s), state %s, after a client expiry", failures, brk.State())
	}
}

// TestWorkerLostMidRun: one backend on default cluster.Options, one of its
// workers killed in the middle of a request's collective. There is one
// fallback and it is the serving layer's: the collective fails typed, the
// breaker hears about it, and the request either replays locally — once, bit
// for bit what a local core returns — or, under RequireCluster, fails with
// cluster.ErrDegraded (503) without one keyswitch computed on the
// coordinator. The program runs at an input level where the killed worker
// owns limbs, so its collective cannot complete without it.
func TestWorkerLostMidRun(t *testing.T) {
	reg := testEnv(t)
	const program = "square"
	prog, _ := reg.Program(program)
	if owned := keyswitch.ChipLimbs(1, prog.InLevel, 2); len(owned) == 0 {
		t.Fatalf("%s runs at level %d, where worker 1 of 2 owns no limb: killing it tests nothing", program, prog.InLevel)
	}
	for _, require := range []bool{true, false} {
		eng, armed := killOnWrite(t, reg)
		core := NewCore(reg, Config{Workers: 1, RequireCluster: require, Backends: []BackendSpec{{Engine: eng}}})

		ct, _ := encryptRandom(t, 813)
		// Warm: push the program's keys, so the first write after arming is
		// the request's first collective.
		if _, err := core.Submit(context.Background(), program, testTenant, ct); err != nil {
			t.Fatalf("warm submit: %v", err)
		}
		armed.Store(true)
		out, err := core.Submit(context.Background(), program, testTenant, ct)
		if armed.Load() {
			t.Fatal("the request never reached the wire")
		}
		snap := core.Metrics().Snapshot()
		if require {
			if !errors.Is(err, cluster.ErrDegraded) || statusFor(err) != http.StatusServiceUnavailable {
				t.Fatalf("RequireCluster, worker lost mid-run: error %v, want cluster.ErrDegraded (503)", err)
			}
			if snap.EmulatorFallbacks != 0 || snap.Errors != 1 {
				t.Fatalf("emulator_fallbacks/errors = %d/%d, want 0/1", snap.EmulatorFallbacks, snap.Errors)
			}
		} else {
			if err != nil {
				t.Fatalf("worker lost mid-run: %v", err)
			}
			sameCiphertext(t, "local replay vs local executor", out, runLocally(t, program, ct))
			if snap.EmulatorFallbacks != 1 || snap.Completed != 2 || snap.Errors != 0 {
				t.Fatalf("emulator_fallbacks/completed/errors = %d/%d/%d, want 1/2/0 with the warm-up", snap.EmulatorFallbacks, snap.Completed, snap.Errors)
			}
		}
		brk := core.backends.all[0].brk
		brk.mu.Lock()
		failures := brk.failures
		brk.mu.Unlock()
		if failures != 1 {
			t.Fatalf("require=%v: breaker recorded %d failures for the lost worker, want 1", require, failures)
		}
		closeCoreT(t, core)
		eng.Close()
	}
}

// killOnWrite is a two-worker pipe cluster whose worker 1 is killed at the
// first coordinator write after armed is set: in the middle of a
// collective. Heartbeats are an hour apart, so no ping takes the hook.
func killOnWrite(t *testing.T, reg *Registry) (*cluster.Engine, *atomic.Bool) {
	t.Helper()
	armed := new(atomic.Bool)
	pipes := make([]*cluster.PipeDialer, 2)
	ds := make([]cluster.Dialer, 2)
	for i := range ds {
		pipes[i] = cluster.NewPipeDialer(cluster.NewWorker(reg.Params))
		ds[i] = writeHookDialer{
			Dialer: pipes[i],
			onWrite: func() {
				if armed.CompareAndSwap(true, false) {
					pipes[1].Kill()
				}
			},
		}
	}
	eng, err := cluster.NewEngine(reg.Params, ds, cluster.Options{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatalf("cluster.NewEngine: %v", err)
	}
	return eng, armed
}

// TestExecutorLeavesInputIntact: the caller owns a run's input and failover
// replays from it, so no run writes or releases it. Its limbs are byte-equal
// after a local run of every catalog program, after a collective that lost
// a worker mid-run (RequireCluster: the request fails) and after the local
// replay that follows such a loss. Under -race a released limb is poisoned,
// so a release of the input fails here as surely as a write.
func TestExecutorLeavesInputIntact(t *testing.T) {
	reg := testEnv(t)
	ct, _ := encryptRandom(t, 917)
	want := wireBytesOf(t, ct)
	intact := func(label string) {
		t.Helper()
		if !bytes.Equal(wireBytesOf(t, ct), want) {
			t.Fatalf("%s: the input's limbs changed", label)
		}
	}
	for _, name := range reg.ProgramNames() {
		runLocally(t, name, ct)
		intact(name + ": local run")
	}
	for _, program := range []string{"square", "logreg16"} {
		prog, _ := reg.Program(program)
		if owned := keyswitch.ChipLimbs(1, prog.InLevel, 2); len(owned) == 0 {
			t.Fatalf("%s runs at level %d, where worker 1 of 2 owns no limb", program, prog.InLevel)
		}
		for _, require := range []bool{true, false} {
			eng, armed := killOnWrite(t, reg)
			core := NewCore(reg, Config{Workers: 1, RequireCluster: require, Backends: []BackendSpec{{Engine: eng}}})
			if _, err := core.Submit(context.Background(), program, testTenant, ct); err != nil {
				t.Fatalf("%s: warm submit: %v", program, err)
			}
			armed.Store(true)
			out, err := core.Submit(context.Background(), program, testTenant, ct)
			if armed.Load() {
				t.Fatalf("%s: the request never reached the wire", program)
			}
			if require {
				if !errors.Is(err, cluster.ErrDegraded) {
					t.Fatalf("%s: worker lost under RequireCluster: %v, want cluster.ErrDegraded", program, err)
				}
				intact(program + ": failed collective")
			} else {
				if err != nil {
					t.Fatalf("%s: worker lost mid-run: %v", program, err)
				}
				intact(program + ": local replay")
				sameCiphertext(t, program+": local replay vs local executor", out, runLocally(t, program, ct))
			}
			closeCoreT(t, core)
			eng.Close()
		}
	}
}

// wireBytesOf is ct's serialised image.
func wireBytesOf(t *testing.T, ct *ckks.Ciphertext) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShortKeyRefusedOnEveryPath: a key with fewer digits than the level
// needs is refused on every keyswitch path — the local evaluator, the
// in-process input broadcast, a net.Pipe cluster's workers (in band) — and
// at registration, instead of being switched into a wrong ciphertext with
// no error.
func TestShortKeyRefusedOnEveryPath(t *testing.T) {
	reg := testEnv(t)
	params := reg.Params
	rlk := env.keys["rlk"]
	if params.Digits() < 2 {
		t.Fatalf("the fixture's top level has %d digits; the test needs two", params.Digits())
	}
	short := &ckks.EvalKey{B: rlk.B[:1], A: rlk.A[:1]}
	ct, _ := encryptRandom(t, 700)
	want := fmt.Sprintf("key has 1 digits, level needs %d", params.Digits())

	if _, _, err := ckks.NewEvaluator(params, nil, nil).KeySwitch(ct.C1, short); !errors.Is(err, ckks.ErrNoKeySwitchPlan) {
		t.Errorf("local: got %v, want ErrNoKeySwitchPlan", err)
	}
	ks, err := keyswitch.NewEngine(params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f0, _, _, err := ks.KeySwitch(ct.C1, short, keyswitch.InputBroadcast); !errors.Is(err, ckks.ErrNoKeySwitchPlan) || f0 != nil {
		t.Errorf("in-process input broadcast: got %v, want ErrNoKeySwitchPlan and no output", err)
	}
	eng, _ := newPipeCluster(t, params, 2, cluster.Options{HeartbeatInterval: time.Hour})
	if f0, _, _, err := eng.KeySwitchStats(ct.C1, short); err == nil || !strings.Contains(err.Error(), want) || f0 != nil {
		t.Errorf("cluster: got %v, want a worker refusal naming %q and no output", err, want)
	}
	// The workers refused in band: the sessions survive and switch a full
	// key next.
	if _, _, _, err := eng.KeySwitchStats(ct.C1, rlk); err != nil {
		t.Errorf("cluster after the refusal: %v", err)
	}
	err = reg.RegisterTenant("short-key", map[string]*ckks.EvalKey{"rlk": short})
	if !errors.Is(err, ErrBadRequest) || statusFor(err) != http.StatusBadRequest {
		t.Errorf("registry: got %v, want ErrBadRequest (400)", err)
	}
	if _, ok := reg.TenantKeys("short-key"); ok {
		t.Error("a refused registration left the tenant registered")
	}
}
