package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/sched"
	"cinnamon/internal/workloads"
)

// deepOneShotAndSession runs the deep program once as a one-shot and then as
// a 3-step session (seeded with the same input) and returns the four
// ciphertexts in that order.
func deepOneShotAndSession(t *testing.T, core *Core, de *deepEnv, ct *ckks.Ciphertext) []*ckks.Ciphertext {
	t.Helper()
	ctx := context.Background()
	name := de.prog.Spec.Name
	out, err := core.Submit(ctx, name, de.tenant, ct)
	if err != nil {
		t.Fatalf("deep one-shot: %v", err)
	}
	outs := []*ckks.Ciphertext{out}
	info, err := core.CreateSession(de.tenant, name)
	if err != nil {
		t.Fatal(err)
	}
	for step, in := range []*ckks.Ciphertext{ct, nil, nil} {
		if out, _, err = core.SessionStep(ctx, info.ID, in); err != nil {
			t.Fatalf("deep session step %d: %v", step+1, err)
		}
		outs = append(outs, out)
	}
	return outs
}

// TestClusterRefreshMatchesLocal: a refresh bootstraps on the evaluator its
// program is running on, so on a core with a cluster backend the bootstrap's
// keyswitches are collectives like every other — the engine's broadcast
// count rises while a refresh is in flight, nothing falls back — and a
// deep one-shot and every step of a deep session come back limb for limb
// what a local core returns.
func TestClusterRefreshMatchesLocal(t *testing.T) {
	de := newDeepEnv(t, 7)
	eng, _ := newPipeCluster(t, de.reg.Params, 2, failoverOptions)
	var refreshes, duringRefresh atomic.Int64
	clustered := NewCore(de.reg, Config{
		Workers:        1,
		RequireCluster: true,
		RequestTimeout: time.Minute,
		Backends:       []BackendSpec{{Engine: eng}},
		testInRefresh: func(string) func() {
			before := eng.Snapshot().Broadcasts
			return func() {
				refreshes.Add(1)
				duringRefresh.Add(eng.Snapshot().Broadcasts - before)
			}
		},
	})
	defer closeCoreT(t, clustered)
	local := NewCore(de.reg, Config{Workers: 1, RequestTimeout: time.Minute})
	defer closeCoreT(t, local)

	ct, _ := de.encryptInput(t, 1801)
	got := deepOneShotAndSession(t, clustered, de, ct)
	want := deepOneShotAndSession(t, local, de, ct)
	for i, label := range []string{"one-shot", "session step 1", "session step 2", "session step 3"} {
		sameCiphertext(t, "deep "+label+": cluster core vs local core", got[i], want[i])
	}

	snap := clustered.Metrics().Snapshot()
	if n := refreshes.Load(); n == 0 || snap.Bootstraps != n || snap.Bootstraps != local.Metrics().Bootstraps.Load() {
		t.Fatalf("bootstraps_total = %d over %d refreshes (local core: %d)", snap.Bootstraps, n, local.Metrics().Bootstraps.Load())
	}
	// One bootstrap is dozens of rotations and relinearizations.
	if d := duringRefresh.Load(); d < 10*refreshes.Load() {
		t.Fatalf("the engine completed %d broadcasts inside %d refreshes: bootstraps are not riding the cluster", d, refreshes.Load())
	}
	if snap.EmulatorFallbacks != 0 || snap.Cluster.LocalFallbacks != 0 {
		t.Fatalf("emulator_fallbacks/local_fallbacks = %d/%d on a healthy cluster", snap.EmulatorFallbacks, snap.Cluster.LocalFallbacks)
	}
}

// TestMidRefreshFailover: the serving backend dies while a refresh is in
// flight. The bootstrap's next collective fails like any keyswitch would:
// the attempt is abandoned, the lost backend's breaker records one failure,
// the run repeats from its input on the second backend and returns the bits
// a local core returns — and the aborted bootstrap is not counted.
func TestMidRefreshFailover(t *testing.T) {
	de := newDeepEnv(t, 7)
	east, eastDialers := newPipeCluster(t, de.reg.Params, 2, failoverOptions)
	west, _ := newPipeCluster(t, de.reg.Params, 2, failoverOptions)
	var kill sync.Once
	core := NewCore(de.reg, Config{
		Workers:        1,
		RequireCluster: true,
		RequestTimeout: time.Minute,
		Backends:       []BackendSpec{{Name: "east", Engine: east}, {Name: "west", Engine: west}},
		// The first refresh — east's, it ranks first — loses its backend
		// inside refresh, before its first collective.
		testInRefresh: func(string) func() {
			kill.Do(func() {
				for _, d := range eastDialers {
					d.Kill()
				}
			})
			return func() {}
		},
	})
	defer closeCoreT(t, core)
	local := NewCore(de.reg, Config{Workers: 1, RequestTimeout: time.Minute})
	defer closeCoreT(t, local)

	ct, _ := de.encryptInput(t, 1802)
	got, err := core.Submit(context.Background(), de.prog.Spec.Name, de.tenant, ct)
	if err != nil {
		t.Fatalf("deep one-shot across a mid-refresh backend loss: %v", err)
	}
	want, err := local.Submit(context.Background(), de.prog.Spec.Name, de.tenant, ct)
	if err != nil {
		t.Fatal(err)
	}
	sameCiphertext(t, "failed-over deep one-shot vs local core", got, want)

	snap := core.Metrics().Snapshot()
	if want := int64(de.prog.BootstrapsRequired); snap.Bootstraps != want {
		t.Fatalf("bootstraps_total = %d, want %d: only the completed pass counts", snap.Bootstraps, want)
	}
	if snap.Completed != 1 || snap.Errors != 0 || snap.EmulatorFallbacks != 0 || snap.Failovers < 1 {
		t.Fatalf("completed/errors/emulator_fallbacks/failovers = %d/%d/%d/%d, want 1/0/0/>=1",
			snap.Completed, snap.Errors, snap.EmulatorFallbacks, snap.Failovers)
	}
	if west.Snapshot().Broadcasts == 0 {
		t.Fatal("the second backend served no collective")
	}
	brk := core.backends.all[0].brk
	brk.mu.Lock()
	failures := brk.failures
	brk.mu.Unlock()
	if failures != 1 {
		t.Fatalf("lost backend's breaker recorded %d failures, want 1", failures)
	}
}

// TestReRegisterBetweenDeepSteps: nothing derived from a tenant's keys
// outlives a request, so keys re-registered under a fresh secret between two
// steps of a deep session are the keys the next step's refresh uses — its
// output decrypts under the new secret.
func TestReRegisterBetweenDeepSteps(t *testing.T) {
	de := newDeepEnv(t, 7)
	core := NewCore(de.reg, Config{Workers: 1, RequestTimeout: time.Minute})
	defer closeCoreT(t, core)
	ctx := context.Background()
	info, err := core.CreateSession(de.tenant, de.prog.Spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := de.encryptInput(t, 1803)
	if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
		t.Fatal(err)
	}
	bootstrapsBefore := core.Metrics().Bootstraps.Load()

	var keys map[string]*ckks.EvalKey
	de.sk, de.pk, keys = de.genKeys(t)
	if err := de.reg.RegisterTenant(de.tenant, keys); err != nil {
		t.Fatal(err)
	}
	ct2, in2 := de.encryptInput(t, 1804) // under the new secret
	out, _, err := core.SessionStep(ctx, info.ID, ct2)
	if err != nil {
		t.Fatalf("step after re-registering: %v", err)
	}
	if core.Metrics().Bootstraps.Load() == bootstrapsBefore {
		t.Fatal("the step after re-registering took no refresh")
	}
	params := de.reg.Params
	got := decodeTenant(t, params, ckks.NewDecryptor(params, de.sk), ckks.NewEncoder(params), out)
	spec := de.prog.Spec
	if e := maxSlotErr(got, spec.EvalPlain(in2)); e > spec.VerifyTol {
		t.Fatalf("refresh after re-registering: worst slot error %g > %g under the new secret", e, spec.VerifyTol)
	}
}

// shallowSessionEnv is a registry hosting only "square", with or without the
// refresh service, one tenant holding just the relinearization key, and a
// ciphertext with one level left: a session's first step squares it away, the
// second needs a refresh.
func shallowSessionEnv(t *testing.T, refreshService bool) (reg *Registry, tenant string, ct *ckks.Ciphertext) {
	t.Helper()
	sq, ok := workloads.ServeWorkloadByName("square")
	if !ok {
		t.Fatal("no square workload")
	}
	rc := RegistryConfig{
		Literal:  workloads.ServeBootstrapParamsLiteral(7, 16, 20260805),
		Programs: []workloads.ServeWorkload{sq},
	}
	if refreshService {
		bcfg := bootstrap.DefaultConfig()
		rc.Bootstrap = &bcfg
	}
	reg, err := NewRegistry(rc)
	if err != nil {
		t.Fatal(err)
	}
	params := reg.Params
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := kg.GenPublicKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	tenant = "shallow-tenant"
	if err := reg.RegisterTenant(tenant, map[string]*ckks.EvalKey{"rlk": rlk}); err != nil {
		t.Fatal(err)
	}
	pt, err := ckks.NewEncoder(params).Encode(make([]complex128, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	if ct, err = ckks.NewEncryptor(params, pk).Encrypt(pt); err != nil {
		t.Fatal(err)
	}
	if ct, err = ckks.NewEvaluator(params, nil, nil).DropLevel(ct, 1); err != nil {
		t.Fatal(err)
	}
	return reg, tenant, ct
}

// TestRefreshMissingKeysFailsTyped: the bootstrap circuit's keys are checked
// when — and only when — a run first needs a refresh. A tenant holding just
// the shallow program's keys steps its session until the levels run out;
// that step fails with ErrMissingKeys (403) and starts no bootstrap. The
// failure is the request's, whatever ran it: on a two-backend cluster core
// with fallback off and a one-failure breaker it is returned from the first
// attempt — no breaker failure, no failover, no 503 — and so is a run out of
// levels on a server with no refresh service (sched.ErrNoRefresh).
func TestRefreshMissingKeysFailsTyped(t *testing.T) {
	for _, tc := range []struct {
		name           string
		refreshService bool
		clustered      bool
		want           error
		status         int
	}{
		{"local", true, false, ErrMissingKeys, http.StatusForbidden},
		{"cluster", true, true, ErrMissingKeys, http.StatusForbidden},
		{"cluster without a refresh service", false, true, sched.ErrNoRefresh, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg, tenant, ct := shallowSessionEnv(t, tc.refreshService)
			probe := &refreshProbe{}
			cfg := Config{Workers: 1, testInRefresh: probe.inRefresh}
			if tc.clustered {
				east, _ := newPipeCluster(t, reg.Params, 2, failoverOptions)
				west, _ := newPipeCluster(t, reg.Params, 2, failoverOptions)
				cfg.Backends = []BackendSpec{{Name: "east", Engine: east}, {Name: "west", Engine: west}}
				cfg.RequireCluster = true
				cfg.CircuitThreshold = 1
			}
			core := NewCore(reg, cfg)
			defer closeCoreT(t, core)

			info, err := core.CreateSession(tenant, "square")
			if err != nil {
				t.Fatalf("session on a shallow program must not demand bootstrap keys: %v", err)
			}
			ctx := context.Background()
			if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
				t.Fatalf("step with a level to spare: %v", err)
			}
			_, _, err = core.SessionStep(ctx, info.ID, nil)
			if !errors.Is(err, tc.want) || statusFor(err) != tc.status {
				t.Fatalf("step needing a refresh = %v (status %d), want %v (%d)", err, statusFor(err), tc.want, tc.status)
			}
			if n := probe.calls(tenant); n != 0 {
				t.Fatalf("%d refreshes began for a request no refresh can serve", n)
			}
			snap := core.Metrics().Snapshot()
			if snap.Bootstraps != 0 || snap.Errors != 1 {
				t.Fatalf("bootstraps/errors = %d/%d, want 0/1", snap.Bootstraps, snap.Errors)
			}
			if !tc.clustered {
				return
			}
			if snap.Failovers != 0 || snap.EmulatorFallbacks != 0 {
				t.Fatalf("failovers/emulator_fallbacks = %d/%d, want 0/0: a request-caused error is no backend's fault", snap.Failovers, snap.EmulatorFallbacks)
			}
			for _, b := range core.backends.all {
				b.brk.mu.Lock()
				failures := b.brk.failures
				b.brk.mu.Unlock()
				if state := b.brk.State(); state != circuitClosed || failures != 0 {
					t.Fatalf("backend %s: circuit %s after %d failures, want closed/0", b.name, state, failures)
				}
			}
		})
	}
}
