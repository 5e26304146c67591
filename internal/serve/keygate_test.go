package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
)

// zipfDeck is the bench's manytenant_churn tenant mix: Zipf(s=2) over 8
// tenants as a 100-card deck, shuffled the way the bench shuffles it.
func zipfDeck() []int {
	var cards []int
	for i, n := range []int{65, 16, 7, 4, 3, 2, 2, 1} {
		for k := 0; k < n; k++ {
			cards = append(cards, i)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(cards), func(i, j int) {
		cards[i], cards[j] = cards[j], cards[i]
	})
	return cards
}

// gatedCache registers n tenants, in order, each with keys, under a
// budget of 2.5 of their bundles.
func gatedCache(t *testing.T, n int, keys map[string]*ckks.EvalKey) *keyCache {
	t.Helper()
	params := testEnv(t).Params
	store, err := newKeyStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	size := bundleSize(t, keys)
	c := newKeyCache(params, size*5/2, store)
	for i := 0; i < n; i++ {
		if err := c.register(fmt.Sprint(i), keys); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func (c *keyCache) residentIDs() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := map[string]bool{}
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ids[el.Value.(*tenantEntry).id] = true
	}
	return ids
}

// TestGateZipfHitShare replays the bench's Zipf tenant mix through a
// 2.5-bundle cache, each acquire carrying the keys of its program (square
// and rotsum in turn, over the fixture's 15-key bundles). A pure LRU
// evicts tenant 1 for one-off tenants and hits about 2 requests in 3; the
// gate keeps tenants 0 and 1 resident, so the hit share is their 0.65 +
// 0.16 of the deck. Residency is per bundle; only the reads are per key:
// a cold stall reads the records of its run's one or three keys.
func TestGateZipfHitShare(t *testing.T) {
	testEnv(t)
	c := gatedCache(t, 8, env.keys)
	deck := zipfDeck()
	needs := [][]string{programKeys(t, "square"), programKeys(t, "rotsum")}
	n := 0
	get := func(ti int) {
		ks, ok := c.acquire(fmt.Sprint(ti), needs[n%len(needs)])
		if !ok {
			t.Fatalf("acquire(%d) failed", ti)
		}
		c.release(ks)
		n++
	}
	// Warm up as the bench does: every tenant once, then the mix.
	for ti := 0; ti < 8; ti++ {
		get(ti)
	}
	for _, ti := range deck {
		get(ti)
	}
	before := c.stats()
	const passes = 5
	for p := 0; p < passes; p++ {
		for _, ti := range deck {
			get(ti)
		}
	}
	s := c.stats()
	hits, misses := s.Hits-before.Hits, s.Misses-before.Misses
	share := float64(hits) / float64(hits+misses)
	t.Logf("hit share %.3f, %d declined, %d evictions over %d requests", share,
		s.AdmissionsDeclined-before.AdmissionsDeclined, s.Evictions-before.Evictions, hits+misses)
	if share < 0.80 || share > 0.82 {
		t.Fatalf("hit share %.3f, want within [0.80, 0.82]", share)
	}
	if res := c.residentIDs(); !res["0"] || !res["1"] {
		t.Fatalf("resident tenants %v, want 0 and 1 among them", res)
	}
	if s.ResidentBytes > s.BudgetBytes {
		t.Fatalf("resident %d bytes over the budget %d", s.ResidentBytes, s.BudgetBytes)
	}
	perStall := float64(s.SpillBytesRead-before.SpillBytesRead) / float64(s.ColdMissStalls-before.ColdMissStalls) / float64(c.tenants["0"].size)
	t.Logf("a cold stall reads %.3f of a bundle", perStall)
	if perStall > 0.25 {
		t.Fatalf("a cold stall reads %.3f of a bundle, want ≤ 0.25", perStall)
	}
}

// TestGateFollowsNewHotTenant: after the mix's hot tenant changes (tenant
// 7 takes tenant 0's share and the reverse), tenant 7 is admitted within
// one aging period of acquisitions.
func TestGateFollowsNewHotTenant(t *testing.T) {
	const n = 8
	c := gatedCache(t, n, genTenantKeys(t, testEnv(t).Params))
	deck := zipfDeck()
	for p := 0; p < 5; p++ {
		for _, ti := range deck {
			c.get(fmt.Sprint(ti))
		}
	}
	if res := c.residentIDs(); !res["0"] || res["7"] {
		t.Fatalf("resident tenants %v before the switch, want 0 and not 7", res)
	}
	period := agingPeriod * n
	for i := 0; ; i++ {
		ti := deck[i%len(deck)]
		switch ti {
		case 0:
			ti = 7
		case 7:
			ti = 0
		}
		c.get(fmt.Sprint(ti))
		if c.residentIDs()["7"] {
			t.Logf("tenant 7 admitted after %d acquisitions (aging period %d)", i+1, period)
			return
		}
		if i+1 >= period {
			t.Fatalf("tenant 7 not admitted within %d acquisitions of turning hot", period)
		}
	}
}

// TestGateDeclinedLoadShared: concurrent acquires of a tenant the gate
// declines make one store read and share one map, and the eviction hook
// fires once, after the last of them releases it.
func TestGateDeclinedLoadShared(t *testing.T) {
	const waiters = 5
	c := gatedCache(t, 2, genTenantKeys(t, testEnv(t).Params)) // both resident
	c.mu.Lock()
	c.budget = c.tenants["0"].size * 3 / 2 // now one: 1 stays, 0 spills
	c.enforceBudgetLocked()
	c.mu.Unlock()
	// 1 will be exactly as hot as 0: the tie keeps the resident.
	for i := 0; i < waiters+1; i++ {
		c.get("1")
	}
	var fired atomic.Int32
	var firedMap map[string]*ckks.EvalKey
	c.onEvict = func(id string, keys map[string]*ckks.EvalKey) {
		if id != "0" {
			t.Errorf("evict hook fired for %s", id)
		}
		fired.Add(1)
		firedMap = keys
	}
	parked, resume := make(chan struct{}), make(chan struct{})
	c.testBeforeLoad = func() {
		close(parked)
		<-resume
	}

	sets := make(chan *keySet, waiters+1)
	acquire := func() {
		ks, ok := c.acquire("0", nil)
		if !ok {
			t.Error("acquire(0) failed")
		}
		sets <- ks
	}
	go acquire()
	<-parked // the loader holds the store read open
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); acquire() }()
	}
	waitLoadWaiters(t, c, "0", waiters)
	close(resume)
	wg.Wait()

	var ks *keySet
	for i := 0; i < waiters+1; i++ {
		got := <-sets
		if ks == nil {
			ks = got
		}
		if got != ks {
			t.Fatal("callers of one declined reload got different maps")
		}
	}
	s := c.stats()
	if s.AdmissionsDeclined != 1 || s.ColdMissStalls != waiters+1 || s.SpillLoadFails != 0 {
		t.Fatalf("declined/stalls/fails = %d/%d/%d, want 1/%d/0 (one store read)",
			s.AdmissionsDeclined, s.ColdMissStalls, s.SpillLoadFails, waiters+1)
	}
	if res := c.residentIDs(); res["0"] || !res["1"] {
		t.Fatalf("resident tenants %v, want 1 only", res)
	}
	for i := 0; i < waiters; i++ {
		c.release(ks)
		if fired.Load() != 0 {
			t.Fatalf("evict hook fired with %d holders left", waiters-i)
		}
	}
	c.release(ks)
	if fired.Load() != 1 || firedMap == nil || firedMap["rlk"] != ks.m["rlk"] {
		t.Fatalf("evict hook fired %d times after the last release, want once with the declined map", fired.Load())
	}
}

// TestDeclinedTenantLeavesNoWorkerKeys: a run on keys the gate declined
// pushes them to the workers, and they leave the workers once the run
// releases them — the declined map takes the eviction path.
func TestDeclinedTenantLeavesNoWorkerKeys(t *testing.T) {
	kA := genTenantKeys(t, testEnv(t).Params)
	size := bundleSize(t, kA)
	reg := squareRegistry(t, size+size/2) // 1.5 single-key bundles: one tenant resident
	if err := reg.RegisterTenant("a", kA); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterTenant("b", genTenantKeys(t, reg.Params)); err != nil { // evicts a
		t.Fatal(err)
	}
	eng, _ := newPipeCluster(t, reg.Params, 2, cluster.Options{})
	core := NewCore(reg, Config{Workers: 1, RequireCluster: true, Backends: []BackendSpec{{Engine: eng}}})
	defer closeCoreT(t, core)
	ct, _ := encryptRandom(t, 4402)
	n := int64(eng.NChips())

	for i := 0; i < 3; i++ { // b is the hot tenant
		if _, err := core.Submit(context.Background(), "square", "b", ct); err != nil {
			t.Fatalf("b's run: %v", err)
		}
	}
	waitKeyResidency(t, eng, n, 0)
	for round := int64(1); round <= 2; round++ {
		if _, err := core.Submit(context.Background(), "square", "a", ct); err != nil {
			t.Fatalf("a's run %d: %v", round, err)
		}
		// a's run pushed its key to both workers; its release evicts them.
		waitKeyResidency(t, eng, n, round)
		if s := reg.KeyCacheStats(); s.AdmissionsDeclined != round || s.ResidentTenants != 1 {
			t.Fatalf("round %d: %d declined, %d resident, want %d and 1", round, s.AdmissionsDeclined, s.ResidentTenants, round)
		}
	}
	if got := eng.Snapshot().KeyPushes; got != 3*n {
		t.Fatalf("key_pushes = %d, want %d (b's key once, a's twice, per worker)", got, 3*n)
	}
}

// TestGateBudgetHeldUnderConcurrency: concurrent callers over the Zipf mix
// (run it under -race) never see resident bytes above the budget, and
// every acquire gets a usable map.
func TestGateBudgetHeldUnderConcurrency(t *testing.T) {
	c := gatedCache(t, 8, genTenantKeys(t, testEnv(t).Params))
	deck := zipfDeck()
	var over atomic.Int64
	check := func() {
		c.mu.Lock()
		if c.resident > c.budget {
			over.Store(c.resident)
		}
		c.mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(deck); i++ {
				ks, ok := c.acquire(fmt.Sprint(deck[(i+25*g)%len(deck)]), nil)
				if !ok || ks.m["rlk"] == nil {
					t.Error("acquire failed")
					return
				}
				check()
				c.release(ks)
			}
		}(g)
	}
	wg.Wait()
	if v := over.Load(); v != 0 {
		t.Fatalf("resident bytes reached %d, over the budget %d", v, c.budget)
	}
	s := c.stats()
	if s.Misses == 0 || s.Hits == 0 {
		t.Fatalf("no churn: %+v", s)
	}
	t.Logf("%d hits, %d misses, %d declined, %d evictions", s.Hits, s.Misses, s.AdmissionsDeclined, s.Evictions)
}
