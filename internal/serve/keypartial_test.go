package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/workloads"
)

// partialRegistry compiles a square-and-rotsum registry on the fixture's
// literal under a budget of 1.5 fixture bundles, and registers tenant
// "cold" and then tenant "hot", which evicts it. Both hold the fixture's
// whole key set (one spill file, shared).
func partialRegistry(t *testing.T) *Registry {
	t.Helper()
	testEnv(t)
	var progs []workloads.ServeWorkload
	for _, name := range []string{"square", "rotsum"} {
		w, ok := workloads.ServeWorkloadByName(name)
		if !ok {
			t.Fatalf("no %s workload", name)
		}
		progs = append(progs, w)
	}
	size := bundleSize(t, env.keys)
	reg, err := NewRegistry(RegistryConfig{Literal: env.lit, Programs: progs, KeyBudgetBytes: size * 3 / 2, KeySpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"cold", "hot"} {
		if err := reg.RegisterTenant(id, env.keys); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// partialCache is partialRegistry's key cache alone, with "hot" acquired
// 16 times (half an aging period), so the gate declines the reloads of
// "cold" in the acquisitions that follow.
func partialCache(t *testing.T) *keyCache {
	t.Helper()
	params := testEnv(t).Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := bundleSize(t, env.keys)
	c := newKeyCache(params, size*3/2, store)
	for _, id := range []string{"cold", "hot"} {
		if err := c.register(id, env.keys); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, ok := c.get("hot"); !ok {
			t.Fatal("get(hot) failed")
		}
	}
	return c
}

// programKeys is the key list runs of the fixture's program name carry.
func programKeys(t *testing.T, name string) []string {
	t.Helper()
	p, ok := testEnv(t).Program(name)
	if !ok {
		t.Fatalf("no program %q", name)
	}
	return p.runKeys
}

// recordBytes is the spill-file bytes of the tenant's records that need
// names.
func recordBytes(c *keyCache, id string, need []string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, r := range c.tenants[id].spill.pick(need) {
		n += r.n
	}
	return n
}

func sortedNames(m map[string]*ckks.EvalKey) []string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func sortedCopy(names []string) []string {
	names = slices.Clone(names)
	slices.Sort(names)
	return names
}

func ctBytes(t *testing.T, ct *ckks.Ciphertext) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ct.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestDeclinedReloadReadsOnlyItsRecords: a cold rotsum run the gate
// declines reads exactly its three rotation-key records, its map holds
// exactly the program's keys, and its output is bit-identical to the same
// run on resident keys.
func TestDeclinedReloadReadsOnlyItsRecords(t *testing.T) {
	reg := partialRegistry(t)
	core := NewCore(reg, Config{Workers: 1})
	defer closeCoreT(t, core)
	prog, _ := reg.Program("rotsum")
	if len(prog.RequiredKeys) != 3 {
		t.Fatalf("rotsum needs %v, want three rotation keys", prog.RequiredKeys)
	}
	ct, _ := encryptRandom(t, 4600)
	var want *ckks.Ciphertext
	for i := 0; i < 4; i++ { // hot out-counts cold
		out, err := core.Submit(context.Background(), "rotsum", "hot", ct)
		if err != nil {
			t.Fatal(err)
		}
		want = out
	}
	before := reg.KeyCacheStats()
	got, err := core.Submit(context.Background(), "rotsum", "cold", ct)
	if err != nil {
		t.Fatal(err)
	}
	after := reg.KeyCacheStats()
	read, wantRead := after.SpillBytesRead-before.SpillBytesRead, recordBytes(reg.keys, "cold", prog.RequiredKeys)
	t.Logf("declined rotsum reload read %d bytes of a %d-byte bundle of %d keys", read, bundleSize(t, env.keys), len(env.keys))
	if read != wantRead {
		t.Fatalf("declined rotsum reload read %d bytes, its three records are %d", read, wantRead)
	}
	if d, st := after.AdmissionsDeclined-before.AdmissionsDeclined, after.ColdMissStalls-before.ColdMissStalls; d != 1 || st != 1 || after.ResidentTenants != 1 {
		t.Fatalf("declined/stalls moved %d/%d with %d tenants resident, want 1/1 with 1", d, st, after.ResidentTenants)
	}
	if !bytes.Equal(ctBytes(t, got), ctBytes(t, want)) {
		t.Fatal("rotsum on a partial reload differs from rotsum on resident keys")
	}
	ks, ok := reg.keys.acquire("cold", prog.runKeys)
	if !ok {
		t.Fatal("acquire(cold) failed")
	}
	defer reg.keys.release(ks)
	if names, req := sortedNames(ks.m), sortedCopy(prog.RequiredKeys); !slices.Equal(names, req) {
		t.Fatalf("partial map holds %v, want %v", names, req)
	}
}

// tamperRecord rewrites a one-frame record of the spill file at path with
// one payload byte flipped and a valid CRC, so only the record's digest
// can tell.
func tamperRecord(t *testing.T, path string, rec spillRecord) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, payload, rest, err := cluster.SplitFrame(raw[rec.off : rec.off+rec.n])
	if err != nil || len(rest) != 0 {
		t.Fatalf("record %q is not one frame: %v", rec.name, err)
	}
	p := bytes.Clone(payload)
	p[len(p)/2] ^= 0x01
	var b bytes.Buffer
	if err := cluster.WriteFrame(&b, spillKey, p); err != nil {
		t.Fatal(err)
	}
	copy(raw[rec.off:], b.Bytes())
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPartialLoadTamper: a CRC-valid tamper in a record no run reads
// leaves partial loads working, and the next full load fails on its digest
// and drops the tenant; a tamper in a record a run reads fails that run's
// partial load and drops the tenant too.
func TestPartialLoadTamper(t *testing.T) {
	c := partialCache(t)
	need := programKeys(t, "rotsum")
	c.mu.Lock()
	e := c.tenants["cold"]
	hash, layout := e.hash, e.spill
	c.mu.Unlock()
	var unused, used spillRecord
	for _, r := range layout.recs {
		if slices.Contains(need, r.name) {
			used = r
		} else {
			unused = r
		}
	}
	path := c.store.path(hash)

	tamperRecord(t, path, unused)
	ks, ok := c.acquire("cold", need)
	if !ok || len(ks.m) != len(need) {
		t.Fatalf("partial load around a tampered unread record: ok %v", ok)
	}
	c.release(ks)
	err := c.store.Load(hash, &layout, layout.recs, func(*spillRecord, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("full load of a CRC-valid tampered record: %v, want a digest mismatch", err)
	}
	if _, ok := c.get("cold"); ok {
		t.Fatal("a full load (TenantKeys) of a tampered bundle succeeded")
	}
	if _, ok := c.keyNames("cold"); ok {
		t.Fatal("the failed full load left the tenant registered")
	}
	if s := c.stats(); s.SpillLoadFails != 1 {
		t.Fatalf("spill_load_failures = %d, want 1", s.SpillLoadFails)
	}

	// A fresh registration of the content rewrites the file; hot's reload
	// then evicts it, and its reloads are declined again.
	if err := c.register("cold2", env.keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.get("hot"); !ok {
		t.Fatal("get(hot) failed")
	}
	tamperRecord(t, path, used)
	if _, ok := c.acquire("cold2", need); ok {
		t.Fatal("partial load of a tampered needed record succeeded")
	}
	if _, ok := c.keyNames("cold2"); ok {
		t.Fatal("the failed partial load left the tenant registered")
	}
	if s := c.stats(); s.SpillLoadFails != 2 || s.ResidentTenants != 1 {
		t.Fatalf("spill_load_failures = %d with %d resident, want 2 with 1", s.SpillLoadFails, s.ResidentTenants)
	}
}

// waitLoadWaiters waits until at least n callers have joined the load in
// flight for tenant id, and fails the test after ten seconds.
func waitLoadWaiters(t *testing.T, c *keyCache, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.mu.Lock()
		ld := c.tenants[id].load
		joined := ld != nil && ld.waiters >= n
		c.mu.Unlock()
		if joined {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d callers never joined %s's load in flight", n, id)
		}
		runtime.Gosched()
	}
}

// waitClosed waits for ch to close, and fails the test after ten seconds.
func waitClosed(t *testing.T, ch chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestPartialLoadsConcurrentPrograms: cold square and rotsum runs of one
// declined tenant arrive while rotsum's load is in flight. The rotsum
// callers share its one read and map; the square callers, whose key it
// does not read, wait for it, then share one load of their own. Every
// caller completes, and each map's eviction hook fires once, after its
// last release, with exactly its keys (run it under -race).
func TestPartialLoadsConcurrentPrograms(t *testing.T) {
	const rotsums, squares = 3, 2
	c := partialCache(t)
	rotKeys, sqKeys := programKeys(t, "rotsum"), programKeys(t, "square")
	var mu sync.Mutex
	holders := map[*keySet]int{}
	var hookKeys [][]string
	c.onEvict = func(id string, keys map[string]*ckks.EvalKey) {
		mu.Lock()
		defer mu.Unlock()
		hookKeys = append(hookKeys, sortedNames(keys))
	}
	var loads atomic.Int32
	parked := []chan struct{}{make(chan struct{}), make(chan struct{})}
	resume := []chan struct{}{make(chan struct{}), make(chan struct{})}
	c.testBeforeLoad = func() {
		if i := loads.Add(1) - 1; i < 2 {
			close(parked[i])
			<-resume[i]
		}
	}
	waiters := func(n int) { waitLoadWaiters(t, c, "cold", n) }
	started := func(i int) { waitClosed(t, parked[i], fmt.Sprintf("load %d to start", i+1)) }
	type got struct {
		ks   *keySet
		need []string
	}
	sets := make(chan got, rotsums+squares)
	var wg sync.WaitGroup
	acquire := func(need []string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks, ok := c.acquire("cold", need)
			if !ok {
				t.Error("acquire(cold) failed")
			}
			sets <- got{ks, need}
		}()
	}
	before := c.stats()
	acquire(rotKeys)
	started(0)
	for i := 1; i < rotsums; i++ {
		acquire(rotKeys)
	}
	for i := 0; i < squares; i++ {
		acquire(sqKeys)
	}
	waiters(rotsums - 1)
	close(resume[0])
	started(1) // the first square caller's load
	waiters(squares - 1)
	close(resume[1])
	wg.Wait()
	close(sets)

	maps := map[string]*keySet{}
	for g := range sets {
		key := strings.Join(g.need, ",")
		if maps[key] == nil {
			maps[key] = g.ks
		}
		if g.ks != maps[key] {
			t.Fatalf("callers needing %v got different maps", g.need)
		}
		if names := sortedNames(g.ks.m); !slices.Equal(names, sortedCopy(g.need)) {
			t.Fatalf("callers needing %v got %v", g.need, names)
		}
		holders[g.ks]++
	}
	if n := loads.Load(); n != 2 || len(maps) != 2 {
		t.Fatalf("%d loads for %d distinct maps, want 2 of each", n, len(maps))
	}
	s := c.stats()
	wantRead := recordBytes(c, "cold", rotKeys) + recordBytes(c, "cold", sqKeys)
	if d, st, read := s.AdmissionsDeclined-before.AdmissionsDeclined, s.ColdMissStalls-before.ColdMissStalls, s.SpillBytesRead-before.SpillBytesRead; d != 2 || st != rotsums+squares || read != wantRead {
		t.Fatalf("declined/stalls/bytes read moved %d/%d/%d, want 2/%d/%d", d, st, read, rotsums+squares, wantRead)
	}
	for ks, n := range holders {
		for i := 0; i < n; i++ {
			mu.Lock()
			early := len(hookKeys)
			mu.Unlock()
			if early != 2-len(holders) {
				t.Fatalf("eviction hook fired %d times with holders left", early)
			}
			c.release(ks)
		}
		delete(holders, ks)
		mu.Lock()
		last := hookKeys[len(hookKeys)-1]
		mu.Unlock()
		if !slices.Equal(last, sortedNames(ks.m)) {
			t.Fatalf("eviction hook fired for %v, the map holds %v", last, sortedNames(ks.m))
		}
	}
	if len(hookKeys) != 2 {
		t.Fatalf("eviction hook fired %d times, want once per map", len(hookKeys))
	}
}

// TestPartialMapLeavesNoWorkerKeys: a declined rotsum run pushes its three
// rotation keys, and they leave the workers once the run releases them —
// the partial map takes the eviction path with exactly the keys it holds.
func TestPartialMapLeavesNoWorkerKeys(t *testing.T) {
	reg := partialRegistry(t)
	eng, _ := newPipeCluster(t, reg.Params, 2, cluster.Options{})
	core := NewCore(reg, Config{Workers: 1, RequireCluster: true, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 4601)
	n := int64(eng.NChips())
	for i := 0; i < 4; i++ { // hot is the hot tenant: its rlk stays on the workers
		if _, err := core.Submit(context.Background(), "square", "hot", ct); err != nil {
			t.Fatalf("hot's run: %v", err)
		}
	}
	waitKeyResidency(t, eng, n, 0)
	pushes := eng.Snapshot().KeyPushes
	if _, err := core.Submit(context.Background(), "rotsum", "cold", ct); err != nil {
		t.Fatalf("cold's rotsum: %v", err)
	}
	// Each rotation key reached the workers that own the run's limbs, and
	// all three leave them (key_evicts counts keys, not key-worker pairs).
	if got := eng.Snapshot().KeyPushes - pushes; got < 3 {
		t.Fatalf("cold's rotsum pushed %d keys, want its three rotation keys", got)
	}
	waitKeyResidency(t, eng, n, 3)
	if _, err := core.Submit(context.Background(), "square", "cold", ct); err != nil {
		t.Fatalf("cold's square: %v", err)
	}
	waitKeyResidency(t, eng, n, 4)
	if s := reg.KeyCacheStats(); s.AdmissionsDeclined != 2 || s.ResidentTenants != 1 {
		t.Fatalf("%d declined, %d resident, want 2 and 1", s.AdmissionsDeclined, s.ResidentTenants)
	}
}

// TestPartialMapNeverResident: callers joining a partial load raise their
// tenant's count past the resident's before it completes, so the gate
// would now admit it; the partial map still never becomes resident, and a
// later run of another program gets a map with its own keys.
func TestPartialMapNeverResident(t *testing.T) {
	const joiners = 20 // cold's count passes hot's, across one halving
	c := partialCache(t)
	rotKeys, sqKeys := programKeys(t, "rotsum"), programKeys(t, "square")
	parked, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	c.testBeforeLoad = func() {
		once.Do(func() {
			close(parked)
			<-resume
		})
	}
	sets := make(chan *keySet, joiners+1)
	var wg sync.WaitGroup
	acquire := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ks, ok := c.acquire("cold", rotKeys)
			if !ok {
				t.Error("acquire(cold) failed")
			}
			sets <- ks
		}()
	}
	acquire()
	waitClosed(t, parked, "the partial load to start")
	for i := 0; i < joiners; i++ {
		acquire()
	}
	waitLoadWaiters(t, c, "cold", joiners)
	c.mu.Lock()
	admits := c.admitLocked(c.tenants["cold"])
	c.mu.Unlock()
	if !admits {
		t.Fatal("the joiners did not lift cold's count past hot's")
	}
	close(resume)
	wg.Wait()
	close(sets)
	for ks := range sets {
		if ks != nil {
			c.release(ks)
		}
	}
	if c.residentIDs()["cold"] {
		t.Fatal("a partial map became resident")
	}
	ks, ok := c.acquire("cold", sqKeys)
	if !ok {
		t.Fatal("acquire(cold) for square failed")
	}
	defer c.release(ks)
	if ks.m["rlk"] == nil {
		t.Fatalf("square's acquire after the partial load got %v", sortedNames(ks.m))
	}
}

// TestDeclinedReloadCarriesRefreshKeys: with a refresh service a run's key
// list holds the bootstrap circuit's keys too, since any session step may
// need a refresh. A shallow session of a tenant whose every reload is
// declined refreshes on its partial maps, bit-identical to the same
// session on resident keys.
func TestDeclinedReloadCarriesRefreshKeys(t *testing.T) {
	sq, ok := workloads.ServeWorkloadByName("square")
	if !ok {
		t.Fatal("no square workload")
	}
	lit := workloads.ServeBootstrapParamsLiteral(7, 16, 20260805)
	bcfg := bootstrap.DefaultConfig()
	params, err := ckks.NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	pre, err := bootstrap.NewPrecomp(params, bcfg)
	if err != nil {
		t.Fatal(err)
	}
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
	rtks, err := kg.GenRotationKeySet(sk, pre.Rotations(), true)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]*ckks.EvalKey{"rlk": rlk, "conj": rtks.Conj}
	for k, key := range rtks.Keys {
		keys[fmt.Sprintf("rot:%d", k)] = key
	}
	size := bundleSize(t, keys)
	reg, err := NewRegistry(RegistryConfig{
		Literal: lit, Programs: []workloads.ServeWorkload{sq}, Bootstrap: &bcfg,
		KeyBudgetBytes: size * 3 / 2, KeySpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"cold", "hot"} { // hot evicts cold
		if err := reg.RegisterTenant(id, keys); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ { // hot out-counts cold
		if _, ok := reg.TenantKeys("hot"); !ok {
			t.Fatal("TenantKeys(hot) failed")
		}
	}
	prog, _ := reg.Program("square")
	t.Logf("square's run keys: %d (required %v)", len(prog.runKeys), prog.RequiredKeys)
	pt, err := ckks.NewEncoder(params).Encode(make([]complex128, params.Slots()), params.MaxLevel(), params.DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, pk).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	if ct, err = ckks.NewEvaluator(params, nil, nil).DropLevel(ct, 1); err != nil {
		t.Fatal(err)
	}

	core := NewCore(reg, Config{Workers: 1})
	defer closeCoreT(t, core)
	// One level left: the first step squares it away, the second refreshes.
	steps := func(tenant string) [][]byte {
		info, err := core.CreateSession(tenant, "square")
		if err != nil {
			t.Fatal(err)
		}
		var outs [][]byte
		for step, in := range []*ckks.Ciphertext{ct, nil} {
			out, _, err := core.SessionStep(context.Background(), info.ID, in)
			if err != nil {
				t.Fatalf("%s's step %d: %v", tenant, step+1, err)
			}
			outs = append(outs, ctBytes(t, out))
		}
		return outs
	}
	want := steps("hot")
	before := reg.KeyCacheStats()
	got := steps("cold")
	after := reg.KeyCacheStats()
	if d := after.AdmissionsDeclined - before.AdmissionsDeclined; d != 2 {
		t.Fatalf("%d of cold's two reloads declined", d)
	}
	if n := core.Metrics().Snapshot().Bootstraps; n != 2 {
		t.Fatalf("%d bootstraps, want one per session", n)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("step %d on declined partial maps differs from the step on resident keys", i+1)
		}
	}
}
