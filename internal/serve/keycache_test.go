package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/cmplx"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/workloads"
)

// TestKeyStoreRoundtrip exercises the content-addressed spill store on raw
// key entries: save/load identity for a full and a one-record load, a
// re-save that lays the file out the same way, and corruption detection
// through the frame CRC.
func TestKeyStoreRoundtrip(t *testing.T) {
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bundle := make([]byte, 1<<16)
	for i := range bundle {
		bundle[i] = byte(i * 31)
	}
	hash, l := saveRaw(t, store, bundle, 4)
	// Re-saving the same content rewrites the file to the same layout.
	if again, err := store.Save(hash, bundle, rawSpans(bundle, 4)); err != nil || !reflect.DeepEqual(again, l) {
		t.Fatalf("re-save: layout %+v, %v; first save %+v", again, err, l)
	}
	got, err := loadCopy(store, hash, l, l.recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bundle) {
		t.Fatalf("roundtrip mismatch: %d bytes in, %d out", len(bundle), len(got))
	}
	span := rawSpans(bundle, 4)[2]
	if got, err := loadCopy(store, hash, l, l.recs[2:3]); err != nil || !bytes.Equal(got, bundle[span.lo:span.hi]) {
		t.Fatalf("one-record load: %d bytes, %v", len(got), err)
	}

	// A bundle without keys still roundtrips (a header alone).
	empty := bundleHash(nil)
	le, err := store.Save(empty, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := loadCopy(store, empty, le, le.recs); err != nil || len(got) != 0 {
		t.Fatalf("empty bundle: %d bytes, %v", len(got), err)
	}

	// Flip one byte mid-file: the frame CRC (or, if the flip lands in
	// framing, the parser) must reject the load.
	raw, err := os.ReadFile(store.path(hash))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(store.path(hash), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCopy(store, hash, l, l.recs); err == nil {
		t.Fatal("corrupted spill file loaded without error")
	}

	// Loading an address that was never saved fails cleanly.
	if _, err := loadCopy(store, bundleHash([]byte("absent")), l, l.recs); err == nil {
		t.Fatal("load of unknown hash succeeded")
	}
}

// genTenantKeys makes an independent single-key bundle. Key generation is
// deterministic per NewKeyGenerator, so two calls yield byte-identical
// bundles (same content address); draw sequentially from one generator
// when a test needs distinct material.
func genTenantKeys(t testing.TB, params *ckks.Parameters) map[string]*ckks.EvalKey {
	t.Helper()
	kg := ckks.NewKeyGenerator(params)
	sk, err := kg.GenSecretKey()
	if err != nil {
		t.Fatal(err)
	}
	rlk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*ckks.EvalKey{"rlk": rlk}
}

func bundleSize(t testing.TB, keys map[string]*ckks.EvalKey) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteKeyBundle(&buf, keys); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// TestKeyCacheEvictionAndReload drives the LRU directly: with a budget
// admitting one bundle, registration of a second tenant evicts the first,
// a blocking get reloads it from spill, metadata stays resident for
// spilled tenants, and a reloaded tenant's next get is a hit.
func TestKeyCacheEvictionAndReload(t *testing.T) {
	reg := testEnv(t)
	params := reg.Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kA := genTenantKeys(t, params)
	kB := genTenantKeys(t, params)
	size := bundleSize(t, kA)
	c := newKeyCache(params, size+size/2, store)

	var evictedIDs []string
	c.onEvict = func(id string, keys map[string]*ckks.EvalKey) {
		evictedIDs = append(evictedIDs, id)
		if keys["rlk"] == nil {
			t.Errorf("evict hook for %s got nil key map", id)
		}
	}

	if err := c.register("a", kA); err != nil {
		t.Fatal(err)
	}
	if err := c.register("b", kB); err != nil {
		t.Fatal(err)
	}
	if len(evictedIDs) != 1 || evictedIDs[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evictedIDs)
	}
	s := c.stats()
	if s.ResidentTenants != 1 || s.SpilledTenants != 1 {
		t.Fatalf("resident/spilled = %d/%d, want 1/1", s.ResidentTenants, s.SpilledTenants)
	}
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", s.ResidentBytes, s.BudgetBytes)
	}

	// Spilled tenants keep their key-name metadata (admission validates
	// against this without touching disk).
	names, ok := c.keyNames("a")
	if !ok || !names["rlk"] {
		t.Fatalf("keyNames(a) = %v, %v", names, ok)
	}

	// Blocking reload: get on the evicted tenant comes back from spill and
	// decodes to a usable key; tenant b rotates out.
	keys, ok := c.get("a")
	if !ok || keys["rlk"] == nil {
		t.Fatal("get(a) after eviction failed")
	}
	s = c.stats()
	if s.Misses == 0 || s.ColdMissStalls == 0 {
		t.Fatalf("cold reload not counted: misses=%d stalls=%d", s.Misses, s.ColdMissStalls)
	}
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d after reload", s.ResidentBytes, s.BudgetBytes)
	}

	// The reload made tenant a resident again: the next get is a hit, no
	// new stall.
	stallsBefore := c.stats().ColdMissStalls
	if keys, ok := c.get("a"); !ok || keys["rlk"] == nil {
		t.Fatal("get(a) after reload failed")
	}
	if got := c.stats().ColdMissStalls; got != stallsBefore {
		t.Fatalf("resident get stalled anyway (%d -> %d)", stallsBefore, got)
	}

	// get on a never-registered tenant is the only false return.
	if _, ok := c.get("nobody"); ok {
		t.Fatal("get of unregistered tenant succeeded")
	}
}

// TestKeyCacheEvictionConcurrentSubmit is the -race workhorse: more
// tenants than the budget admits, all submitting concurrently, so every
// request races registration-order evictions and spill reloads. An
// in-flight batch whose tenant was evicted mid-flight must complete from
// the spill store — ErrUnknownTenant (or any error) is a failure. Outputs
// are verified against each tenant's own homomorphic reference afterwards.
func TestKeyCacheEvictionConcurrentSubmit(t *testing.T) {
	testEnv(t) // reuse the fixture's compiled literal
	lit := env.lit
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}

	const nTenants = 3
	type tenantCrypto struct {
		keys map[string]*ckks.EvalKey
		enc  *ckks.Encoder
		encr *ckks.Encryptor
		decr *ckks.Decryptor
	}
	tcs := make([]*tenantCrypto, nTenants)
	kg := ckks.NewKeyGenerator(params)
	for i := range tcs {
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
		tcs[i] = &tenantCrypto{
			keys: map[string]*ckks.EvalKey{"rlk": rlk},
			enc:  ckks.NewEncoder(params),
			encr: ckks.NewEncryptor(params, pk),
			decr: ckks.NewDecryptor(params, sk),
		}
	}

	// Budget for 1.5 bundles: exactly one tenant resident at a time, so
	// every cross-tenant transition is an eviction + reload.
	size := bundleSize(t, tcs[0].keys)
	reg, err := NewRegistry(RegistryConfig{
		Literal:        lit,
		KeyBudgetBytes: size + size/2,
		KeySpillDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range tcs {
		if err := reg.RegisterTenant(fmt.Sprintf("kc-%d", i), tc.keys); err != nil {
			t.Fatal(err)
		}
	}

	core := NewCore(reg, Config{Workers: 2})
	defer core.Close(context.Background())

	const perTenant = 6
	type outcome struct {
		tenant int
		in     []complex128
		out    *ckks.Ciphertext
	}
	outs := make([]outcome, nTenants*perTenant)
	var wg sync.WaitGroup
	errs := make(chan error, len(outs))
	for ti := range tcs {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tc := tcs[ti]
			for r := 0; r < perTenant; r++ {
				v := make([]complex128, params.Slots())
				for i := range v {
					v[i] = complex(float64((i+r+ti)%5)/5-0.4, 0)
				}
				pt, err := tc.enc.Encode(v, params.MaxLevel(), params.DefaultScale())
				if err != nil {
					errs <- err
					return
				}
				ct, err := tc.encr.Encrypt(pt)
				if err != nil {
					errs <- err
					return
				}
				out, err := core.Submit(context.Background(), "square", fmt.Sprintf("kc-%d", ti), ct)
				if err != nil {
					if errors.Is(err, ErrUnknownTenant) {
						errs <- fmt.Errorf("tenant kc-%d became unknown mid-run (eviction leaked into correctness): %w", ti, err)
					} else {
						errs <- fmt.Errorf("tenant kc-%d: %w", ti, err)
					}
					return
				}
				outs[ti*perTenant+r] = outcome{tenant: ti, in: v, out: out}
			}
		}(ti)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Serial verification pass (decryptors are stateful): every response,
	// decrypted under its tenant's own secret key, must match the plaintext
	// model — a request served with the wrong tenant's reloaded keys
	// decrypts to noise.
	square, _ := reg.Program("square")
	for _, oc := range outs {
		if oc.out == nil {
			continue
		}
		tc := tcs[oc.tenant]
		want := square.Spec.EvalPlain(oc.in)
		got := decodeTenant(t, params, tc.decr, tc.enc, oc.out)
		worst := 0.0
		for i := range got {
			if e := cmplx.Abs(got[i] - want[i]); e > worst {
				worst = e
			}
		}
		if worst > square.Spec.VerifyTol {
			t.Fatalf("tenant kc-%d: slot error %.2e vs EvalPlain — served with wrong keys?", oc.tenant, worst)
		}
	}

	s := reg.KeyCacheStats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions with %d tenants over a 1.5-bundle budget: %+v", nTenants, s)
	}
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes exceeds budget %d", s.ResidentBytes, s.BudgetBytes)
	}
	if s.Misses == 0 {
		t.Fatalf("churn run recorded no misses: %+v", s)
	}
}

// TestKeyCacheLoadFailureDropsTenant: a spilled tenant whose bundle cannot
// be read back (disk error, corruption) must be dropped outright — not
// left half-alive with admission (keyNames) accepting requests that every
// batch then fails with a misleading ErrUnknownTenant. Failed loads must
// not pollute the cold-miss stall telemetry either.
func TestKeyCacheLoadFailureDropsTenant(t *testing.T) {
	reg := testEnv(t)
	params := reg.Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	kA := genTenantKeys(t, params)
	kB := genTenantKeys(t, params)
	size := bundleSize(t, kA)
	c := newKeyCache(params, size+size/2, store)
	if err := c.register("a", kA); err != nil {
		t.Fatal(err)
	}
	if err := c.register("b", kB); err != nil { // evicts a
		t.Fatal(err)
	}

	// Destroy a's spill bundle behind the cache's back.
	c.mu.Lock()
	hashA := c.tenants["a"].hash
	c.mu.Unlock()
	if err := os.Remove(store.path(hashA)); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.get("a"); ok {
		t.Fatal("get(a) succeeded with its spill bundle destroyed")
	}
	// The tenant is gone for admission too: keyNames and get now agree
	// that re-registering is the remedy.
	if _, ok := c.keyNames("a"); ok {
		t.Fatal("keyNames(a) still answers after the spill load failed")
	}
	s := c.stats()
	if s.SpillLoadFails != 1 {
		t.Fatalf("spill_load_failures = %d, want 1", s.SpillLoadFails)
	}
	if s.ColdMissStalls != 0 {
		t.Fatalf("failed load was metered as a cold-miss stall (%d)", s.ColdMissStalls)
	}
	// An unaffected tenant keeps serving, and re-registering revives a.
	if keys, ok := c.get("b"); !ok || keys["rlk"] == nil {
		t.Fatal("get(b) failed after a's load failure")
	}
	if err := c.register("a", kA); err != nil {
		t.Fatal(err)
	}
	if keys, ok := c.get("a"); !ok || keys["rlk"] == nil {
		t.Fatal("get(a) failed after re-registration")
	}
}

// TestSubmitLoadFailureCounted: a request admitted on the tenant's resident
// key-name metadata whose spill reload then fails (the tenant is dropped)
// is a counted error — on the one-shot path and on the session-step path —
// not a request that vanishes between Received and the outcome counters.
func TestSubmitLoadFailureCounted(t *testing.T) {
	testEnv(t) // reuse the fixture's compiled literal
	params, err := ckks.NewParameters(env.lit)
	if err != nil {
		t.Fatal(err)
	}
	kA := genTenantKeys(t, params)
	kB := genTenantKeys(t, params)
	size := bundleSize(t, kA)
	reg, err := NewRegistry(RegistryConfig{
		Literal:        env.lit,
		KeyBudgetBytes: size + size/2, // one tenant resident at a time
		KeySpillDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	core := NewCore(reg, Config{})
	defer core.Close(context.Background())
	ct, _ := encryptRandom(t, 4300)

	// Each round: register the victim, open a session while it is resident,
	// evict it by registering another tenant, destroy its spill bundle, then
	// send one request, which must fail typed and count exactly once.
	failOnce := func(victim string, request func(sessionID string) error) {
		t.Helper()
		if err := reg.RegisterTenant(victim, kA); err != nil {
			t.Fatal(err)
		}
		info, err := core.CreateSession(victim, "square")
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.RegisterTenant("evictor-of-"+victim, kB); err != nil {
			t.Fatal(err)
		}
		reg.keys.mu.Lock()
		e := reg.keys.tenants[victim]
		hash, spilled := e.hash, e.elem == nil
		reg.keys.mu.Unlock()
		if !spilled {
			t.Fatalf("%s still resident after the evictor registered", victim)
		}
		if err := os.WriteFile(reg.keys.store.path(hash), []byte("not a key bundle"), 0o600); err != nil {
			t.Fatal(err)
		}
		before := core.Metrics().Snapshot()
		if err := request(info.ID); !errors.Is(err, ErrUnknownTenant) {
			t.Fatalf("%s: %v, want ErrUnknownTenant", victim, err)
		}
		after := core.Metrics().Snapshot()
		if after.Errors != before.Errors+1 || after.Programs["square"].Errors != before.Programs["square"].Errors+1 {
			t.Fatalf("%s: errors moved %d (square: %d), want 1 and 1", victim,
				after.Errors-before.Errors, after.Programs["square"].Errors-before.Programs["square"].Errors)
		}
		if after.Received != before.Received+1 || after.Completed != before.Completed || after.Timeouts != before.Timeouts {
			t.Fatalf("%s: received/completed/timeouts moved %d/%d/%d, want 1/0/0", victim,
				after.Received-before.Received, after.Completed-before.Completed, after.Timeouts-before.Timeouts)
		}
	}
	failOnce("one-shot-victim", func(string) error {
		_, err := core.Submit(context.Background(), "square", "one-shot-victim", ct)
		return err
	})
	failOnce("step-victim", func(id string) error {
		_, _, err := core.SessionStep(context.Background(), id, ct)
		return err
	})
	if s := reg.KeyCacheStats(); s.SpillLoadFails != 2 {
		t.Fatalf("spill_load_failures = %d, want 2", s.SpillLoadFails)
	}
}

// TestKeySpillSweepOnRotation: replacing a tenant's keys must delete the
// superseded bundle's spill file once no tenant references its hash —
// otherwise key rotation grows the spill dir without bound — while a
// content-shared bundle survives until its last referent rotates away.
func TestKeySpillSweepOnRotation(t *testing.T) {
	reg := testEnv(t)
	params := reg.Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// One generator for both bundles: key generation is deterministic per
	// NewKeyGenerator, so sequential draws (not fresh generators) are what
	// produce distinct material — and distinct content addresses.
	kg := ckks.NewKeyGenerator(params)
	genKeys := func() map[string]*ckks.EvalKey {
		sk, err := kg.GenSecretKey()
		if err != nil {
			t.Fatal(err)
		}
		rlk, err := kg.GenRelinKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]*ckks.EvalKey{"rlk": rlk}
	}
	k1 := genKeys()
	k2 := genKeys()
	c := newKeyCache(params, bundleSize(t, k1)*10, store)

	// Two tenants share one content-addressed file (identical material).
	if err := c.register("a", k1); err != nil {
		t.Fatal(err)
	}
	if err := c.register("shared", k1); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	h1 := c.tenants["a"].hash
	c.mu.Unlock()

	// a rotates to new material: h1 must survive (shared still uses it).
	if err := c.register("a", k2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.path(h1)); err != nil {
		t.Fatalf("shared bundle swept while still referenced: %v", err)
	}
	c.mu.Lock()
	h2 := c.tenants["a"].hash
	c.mu.Unlock()
	if h1 == h2 {
		t.Fatal("distinct key material hashed identically")
	}

	// The last referent rotates away: h1 is garbage and must be deleted.
	if err := c.register("shared", k2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store.path(h1)); !os.IsNotExist(err) {
		t.Fatalf("superseded bundle not swept (stat err %v)", err)
	}
	if _, err := os.Stat(store.path(h2)); err != nil {
		t.Fatalf("live bundle missing: %v", err)
	}

	// Both tenants still serve from the surviving bundle after eviction.
	c.mu.Lock()
	c.budget = 1 // force everything out on the next enforcement
	evicted := c.enforceBudgetLocked()
	c.mu.Unlock()
	if len(evicted) == 0 {
		t.Fatal("nothing evicted under a 1-byte budget")
	}
	c.mu.Lock()
	c.budget = bundleSize(t, k2) * 10
	c.mu.Unlock()
	for _, id := range []string{"a", "shared"} {
		if keys, ok := c.get(id); !ok || keys["rlk"] == nil {
			t.Fatalf("get(%s) failed after sweep + eviction", id)
		}
	}
}

// TestBootstrapperForColdReloadEviction began as a self-deadlock regression:
// BootstrapperFor on a spilled tenant triggers a blocking spill reload,
// and installing the reloaded keys pushes resident bytes over budget, so
// the cache evicts another tenant — whose eviction hook once took the
// bootstrapper cache's mutex, which BootstrapperFor held across the reload.
// The cache and its mutex are gone; the scenario (a cold reload evicting
// another tenant mid-lookup) stays.
func TestBootstrapperForColdReloadEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap precomp is expensive")
	}
	lit := workloads.ServeBootstrapParamsLiteral(8, 16, 20260808)
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	// rlk-only bundles: BootstrapperFor will end in ErrMissingKeys (no
	// conj), but the deadlock fired earlier, inside the key load itself —
	// cheap bundles keep the test fast.
	kA := genTenantKeys(t, params)
	kB := genTenantKeys(t, params)
	size := bundleSize(t, kA)
	bcfg := bootstrap.DefaultConfig()
	sq, ok := workloads.ServeWorkloadByName("square")
	if !ok {
		t.Fatal("no square workload")
	}
	reg, err := NewRegistry(RegistryConfig{
		Literal:        lit,
		Programs:       []workloads.ServeWorkload{sq},
		Bootstrap:      &bcfg,
		KeyBudgetBytes: size + size/2, // one tenant resident at a time
		KeySpillDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterTenant("a", kA); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterTenant("b", kB); err != nil { // evicts a
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := reg.BootstrapperFor("a") // reload of a evicts b mid-call
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMissingKeys) {
			t.Fatalf("BootstrapperFor(a) = %v, want ErrMissingKeys", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("BootstrapperFor deadlocked on a cold-tenant reload eviction")
	}
	// The scenario must actually have exercised an eviction inside the
	// reload: register(b) evicted a, and reloading a evicted b.
	if s := reg.KeyCacheStats(); s.Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥ 2 (reload did not evict)", s.Evictions)
	}
}

// decodeTenant decrypts and decodes with one tenant's own key material.
func decodeTenant(t testing.TB, params *ckks.Parameters, decr *ckks.Decryptor, enc *ckks.Encoder, ct *ckks.Ciphertext) []complex128 {
	t.Helper()
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

// squareRegistry compiles a square-only registry on the fixture's literal,
// cheap enough to build per test, with an optional key budget.
func squareRegistry(t *testing.T, budget int64) *Registry {
	t.Helper()
	testEnv(t)
	sq, ok := workloads.ServeWorkloadByName("square")
	if !ok {
		t.Fatal("no square workload")
	}
	cfg := RegistryConfig{Literal: env.lit, Programs: []workloads.ServeWorkload{sq}, KeyBudgetBytes: budget}
	if budget > 0 {
		cfg.KeySpillDir = t.TempDir()
	}
	reg, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// waitKeyResidency waits for the engine's workers to hold exactly resident
// keys after exactly evicts worker-side evictions — the eviction hook runs
// off the serving path — and fails the test if they never settle there.
func waitKeyResidency(t *testing.T, eng *cluster.Engine, resident, evicts int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := eng.Snapshot()
		if snap.KeysResident == resident && snap.KeyEvicts == evicts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("keys_resident/key_evicts = %d/%d, want %d/%d", snap.KeysResident, snap.KeyEvicts, resident, evicts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReRegisterEvictsSupersededKeys: a re-registration supersedes the
// tenant's key map, and the superseded keys leave the workers — three
// generations of one tenant, each run once, leave exactly one generation
// resident.
func TestReRegisterEvictsSupersededKeys(t *testing.T) {
	reg := squareRegistry(t, 0)
	eng, _ := newPipeCluster(t, reg.Params, 2, cluster.Options{})
	core := NewCore(reg, Config{Workers: 1, RequireCluster: true, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 4400)
	for gen := 1; gen <= 3; gen++ {
		if err := reg.RegisterTenant("rotating", genTenantKeys(t, reg.Params)); err != nil {
			t.Fatal(err)
		}
		if _, err := core.Submit(context.Background(), "square", "rotating", ct); err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
	}
	// One generation's relinearization key on each worker; the two
	// superseded ones evicted.
	n := int64(eng.NChips())
	waitKeyResidency(t, eng, n, 2)
	if got := eng.Snapshot().KeyPushes; got != 3*n {
		t.Fatalf("key_pushes = %d, want %d (one key per generation per worker)", got, 3*n)
	}
}

// TestEvictedMidRunLeavesNoWorkerKeys: a tenant evicted while its run holds
// its keys keeps them until the run returns, and then loses them on the
// workers too — the run's lazy push does not outlive the eviction.
func TestEvictedMidRunLeavesNoWorkerKeys(t *testing.T) {
	kA := genTenantKeys(t, testEnv(t).Params)
	size := bundleSize(t, kA)
	reg := squareRegistry(t, size+size/2) // 1.5 single-key bundles: one tenant resident
	if err := reg.RegisterTenant("a", kA); err != nil {
		t.Fatal(err)
	}
	eng, _ := newPipeCluster(t, reg.Params, 2, cluster.Options{})
	var armed atomic.Bool
	parked, resume := make(chan struct{}), make(chan struct{})
	core := NewCore(reg, Config{
		Workers:        1,
		RequireCluster: true,
		Backends:       []BackendSpec{{Engine: eng}},
		testPreRun: func() {
			if armed.CompareAndSwap(true, false) {
				close(parked)
				<-resume
			}
		},
	})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 4401)

	armed.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := core.Submit(context.Background(), "square", "a", ct)
		done <- err
	}()
	<-parked
	if err := reg.RegisterTenant("b", genTenantKeys(t, reg.Params)); err != nil { // evicts a
		t.Fatal(err)
	}
	if s := reg.KeyCacheStats(); s.Evictions != 1 {
		t.Fatalf("registering b evicted %d tenants, want 1 (a)", s.Evictions)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("a's run: %v", err)
	}
	// a's run pushed its key to both workers; its release evicts them.
	n := int64(eng.NChips())
	waitKeyResidency(t, eng, 0, 1)

	if _, err := core.Submit(context.Background(), "square", "b", ct); err != nil {
		t.Fatalf("b's run: %v", err)
	}
	waitKeyResidency(t, eng, n, 1)
	if got := eng.Snapshot().KeyPushes; got != 2*n {
		t.Fatalf("key_pushes = %d, want %d (a's key and b's, once per worker)", got, 2*n)
	}
}
