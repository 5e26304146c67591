package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/workloads"
)

// TestSessionLifecycle walks one session end to end: create, seed with a
// ciphertext, iterate on the held state, inspect, close — verifying the
// decrypted value after every step against the plain computation.
func TestSessionLifecycle(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{Workers: 1})
	defer core.Close(context.Background())
	ctx := context.Background()

	if _, err := core.CreateSession(testTenant, "no-such-program"); !errors.Is(err, ErrUnknownProgram) {
		t.Fatalf("create with unknown program: %v", err)
	}
	if _, err := core.CreateSession("no-such-tenant", "square"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("create with unknown tenant: %v", err)
	}

	info, err := core.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatal(err)
	}
	if info.Steps != 0 || info.StateLevel != -1 {
		t.Fatalf("fresh session: steps=%d stateLevel=%d, want 0/-1", info.Steps, info.StateLevel)
	}

	// The first step must carry a ciphertext: there is no state yet.
	if _, _, err := core.SessionStep(ctx, info.ID, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty first step: %v, want ErrBadRequest", err)
	}

	ct, v := encryptRandom(t, 4101)
	want := make([]complex128, len(v))
	copy(want, v)
	maxLevel := reg.Params.MaxLevel()
	for step := 1; step <= 3; step++ {
		var in *ckks.Ciphertext
		if step == 1 {
			in = ct // seed; later steps iterate the held state
		}
		out, si, err := core.SessionStep(ctx, info.ID, in)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if si.Steps != step {
			t.Fatalf("step %d: info reports %d steps", step, si.Steps)
		}
		if wantLevel := maxLevel - step; out.Level() != wantLevel || si.StateLevel != wantLevel {
			t.Fatalf("step %d: level %d (info %d), want %d", step, out.Level(), si.StateLevel, wantLevel)
		}
		for i := range want {
			want[i] *= want[i]
		}
		if e := maxSlotErr(decryptDecode(t, out), want); e > 1e-2 {
			t.Fatalf("step %d: worst slot error %g", step, e)
		}
	}

	got, err := core.Session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 3 || got.Program != "square" || got.Tenant != testTenant {
		t.Fatalf("session view: %+v", got)
	}
	if core.SessionCount() != 1 {
		t.Fatalf("SessionCount = %d, want 1", core.SessionCount())
	}

	if err := core.CloseSession(info.ID); err != nil {
		t.Fatal(err)
	}
	if err := core.CloseSession(info.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double close: %v, want ErrUnknownSession", err)
	}
	if _, _, err := core.SessionStep(ctx, info.ID, ct); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step after close: %v, want ErrUnknownSession", err)
	}
	if _, err := core.Session(info.ID); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("get after close: %v, want ErrUnknownSession", err)
	}
}

// TestSessionTTLEviction drives the sweeper directly with a synthetic
// clock: idle sessions past the TTL vanish, fresh ones stay, and the
// metrics record the eviction.
func TestSessionTTLEviction(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{Workers: 1, SessionTTL: time.Hour})
	defer core.Close(context.Background())

	a, err := core.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.CreateSession(testTenant, "square"); err != nil {
		t.Fatal(err)
	}
	if n := core.sessions.sweep(time.Now()); n != 0 {
		t.Fatalf("sweep evicted %d fresh sessions", n)
	}
	if n := core.sessions.sweep(time.Now().Add(2 * time.Hour)); n != 2 {
		t.Fatalf("sweep evicted %d idle sessions, want 2", n)
	}
	if core.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after eviction", core.SessionCount())
	}
	snap := core.Metrics().Snapshot()
	if snap.SessionsEvicted != 2 || snap.SessionsActive != 0 {
		t.Fatalf("metrics: evicted=%d active=%d, want 2/0", snap.SessionsEvicted, snap.SessionsActive)
	}
	ct, _ := encryptRandom(t, 4102)
	if _, _, err := core.SessionStep(context.Background(), a.ID, ct); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("step on evicted session: %v, want ErrUnknownSession", err)
	}

	// The session cap sheds with ErrOverloaded, not an eviction.
	small := NewCore(reg, Config{Workers: 1, MaxSessions: 1})
	defer small.Close(context.Background())
	if _, err := small.CreateSession(testTenant, "square"); err != nil {
		t.Fatal(err)
	}
	if _, err := small.CreateSession(testTenant, "square"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("create past the cap: %v, want ErrOverloaded", err)
	}
}

// TestSessionConcurrentSteps hammers one session from many goroutines
// (run under -race): steps serialize on the session mutex, every one
// lands, and the final state is the fully-iterated ciphertext.
func TestSessionConcurrentSteps(t *testing.T) {
	reg := testEnv(t)
	core := NewCore(reg, Config{Workers: 2})
	defer core.Close(context.Background())
	ctx := context.Background()

	info, err := core.CreateSession(testTenant, "square")
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := encryptRandom(t, 4103)
	if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
		t.Fatal(err)
	}

	// Three more squarings walk the state from level 3 to level 0; the
	// goroutines race but each step consumes exactly one level.
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = core.SessionStep(ctx, info.ID, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent step %d: %v", i, err)
		}
	}
	got, err := core.Session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Steps != 4 || got.StateLevel != 0 {
		t.Fatalf("after 4 steps: steps=%d stateLevel=%d, want 4/0", got.Steps, got.StateLevel)
	}
	// A fifth step would need a refresh; without the bootstrap service the
	// scheduler must refuse rather than run out of levels mid-graph.
	if _, _, err := core.SessionStep(ctx, info.ID, nil); err == nil {
		t.Fatal("step past level 0 succeeded without a bootstrap service")
	}
}

// deepEnv is a bootstrap-enabled registry hosting the deep catalog, with one
// tenant registered for logreg16-deep and the bootstrap circuit.
type deepEnv struct {
	reg    *Registry
	prog   *Program
	tenant string
	keys   map[string]*ckks.EvalKey
	sk     *ckks.SecretKey
	pk     *ckks.PublicKey
}

func newDeepEnv(t *testing.T, logN int) *deepEnv {
	t.Helper()
	lit := workloads.ServeBootstrapParamsLiteral(logN, 16, 20260805)
	cfg := bootstrap.DefaultConfig()
	reg, err := NewRegistry(RegistryConfig{
		Literal:   lit,
		Programs:  workloads.DeepServeWorkloads(),
		Bootstrap: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, ok := reg.Program("logreg16-deep")
	if !ok {
		t.Fatalf("logreg16-deep not compiled (skipped: %v)", reg.Skipped)
	}
	if !prog.Bootstrapped || prog.BootstrapsRequired < 1 {
		t.Fatalf("logreg16-deep: bootstrapped=%v required=%d", prog.Bootstrapped, prog.BootstrapsRequired)
	}
	de := &deepEnv{reg: reg, prog: prog, tenant: "deep-tenant"}
	de.sk, de.pk, de.keys = de.genKeys(t)
	if err := reg.RegisterTenant(de.tenant, de.keys); err != nil {
		t.Fatal(err)
	}
	return de
}

// genKeys draws a fresh secret and the evaluation keys the deep program and
// the bootstrap circuit need under it.
func (e *deepEnv) genKeys(t *testing.T) (*ckks.SecretKey, *ckks.PublicKey, map[string]*ckks.EvalKey) {
	t.Helper()
	kg := ckks.NewKeyGenerator(e.reg.Params)
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
	// RequiredKeys already names the union of the program's and the
	// circuit's rotations.
	rtks, err := kg.GenRotationKeySet(sk, e.prog.Rotations, true)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk, "conj": rtks.Conj}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	return sk, pk, keys
}

// encryptInput encrypts one catalog-shaped input for the deep program.
func (e *deepEnv) encryptInput(t *testing.T, seed int64) (*ckks.Ciphertext, []complex128) {
	t.Helper()
	params := e.reg.Params
	in := e.prog.Spec.MakeInput(rand.New(rand.NewSource(seed)), params.Slots())
	pt, err := ckks.NewEncoder(params).Encode(in, params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, e.pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct, in
}

// TestDeepBootstrapEndToEnd is the whole tentpole in one process: a
// depth-20 program on a 16-level chain compiles as a scheduler-path entry,
// a one-shot request bootstraps mid-program and still decrypts to the
// plain-model output, and a session continues from the exhausted state by
// leaning on more refreshes.
func TestDeepBootstrapEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("deep bootstrap end-to-end is expensive")
	}
	de := newDeepEnv(t, 8)
	reg, params, tenant, spec := de.reg, de.reg.Params, de.tenant, de.prog.Spec

	core := NewCore(reg, Config{Workers: 1, RequestTimeout: 10 * time.Minute})
	defer core.Close(context.Background())
	ctx := context.Background()

	enc := ckks.NewEncoder(params)
	decr := ckks.NewDecryptor(params, de.sk)
	ct, in := de.encryptInput(t, 4104)
	decode := func(ct *ckks.Ciphertext) []complex128 {
		pt, err := decr.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		v, err := enc.Decode(pt, params.Slots())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	// One-shot: the plan's single mid-program refresh happens inside.
	out, err := core.Submit(ctx, "logreg16-deep", tenant, ct)
	if err != nil {
		t.Fatal(err)
	}
	want := spec.EvalPlain(in)
	if e := maxSlotErr(decode(out), want); e > spec.VerifyTol {
		t.Fatalf("deep one-shot: worst slot error %g > %g", e, spec.VerifyTol)
	}
	snap := core.Metrics().Snapshot()
	if snap.Bootstraps < 1 {
		t.Fatalf("bootstraps_total = %d after a deep run", snap.Bootstraps)
	}

	// Session continuation: step 2 starts from the exhausted (level-0)
	// output state, so the scheduler must refresh before every multiply.
	info, err := core.CreateSession(tenant, "logreg16-deep")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.SessionStep(ctx, info.ID, ct); err != nil {
		t.Fatal(err)
	}
	out2, si, err := core.SessionStep(ctx, info.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if si.Steps != 2 {
		t.Fatalf("session steps = %d, want 2", si.Steps)
	}
	want2 := spec.EvalPlain(want)
	// Two chained model applications accumulate approximation error beyond
	// one application's budget.
	if e := maxSlotErr(decode(out2), want2); e > 2*spec.VerifyTol {
		t.Fatalf("deep session step 2: worst slot error %g > %g", e, 2*spec.VerifyTol)
	}
	if snap := core.Metrics().Snapshot(); snap.Bootstraps <= 1 {
		t.Fatalf("bootstraps_total = %d after session steps, want growth", snap.Bootstraps)
	}
}
