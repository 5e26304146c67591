package serve

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
)

// keyCache is the budgeted tenant-key tier: per-tenant *metadata* (key-name
// set, spill-file layout, bundle size) stays resident for every registered
// tenant, while the decoded eval-key maps — the tens-of-MB part — live in a
// hard-budget LRU. Registration is write-through: the bundle's keys spill
// to a fresh file of the on-disk store immediately, one verified record
// per key, so eviction is just dropping the decoded map, and a later
// access reloads + deserializes it (deduplicated across concurrent
// callers, so a cold tenant's key set costs one read of its records no
// matter how many requests pile up behind it, whether or not the reload
// stays resident). A spill file belongs to one registration and goes with
// it: when a re-registration supersedes it (or, if a load of it is in
// flight, when that load completes) and when a failed load drops the
// tenant.
//
// A frequency gate stands in front of the LRU (TinyLFU admission): every
// tenant carries an aged access count, and a reloaded map becomes resident
// only if its tenant's count is strictly greater than that of every
// resident the budget would evict for it. A declined map serves the
// requests that asked for it and leaves with them, so one-off tenants
// cannot push the hot ones out. The counts halve every agingPeriod
// acquisitions per registered tenant, which lets a tenant that turns hot
// overtake one that cooled off; the period scales with the tenant count,
// so it is not a knob. The gate decides when a reload starts: a reload it
// would admit reads every key, and is checked again when it completes; one
// it would decline reads only the keys its run names (acquire's need), and
// that partial map never becomes resident. Residency, the budget, the gate
// and the hit/miss counts stay per bundle.
//
// The cache is also the one owner of what cluster workers hold (see
// keySet and onEvict).
//
// Budget accounting uses the serialized bundle length as the residency
// cost proxy — it tracks the decoded footprint within a small constant
// factor and is exact, cheap and stable across runs. Budget 0 means
// unbounded: no serialization, no spill, no eviction, no access counts —
// byte-for-byte the pre-cache behavior, which keeps single-tenant
// deployments and the test suite on the zero-overhead path.
type keyCache struct {
	params *ckks.Parameters
	store  *keyStore // nil iff unbounded
	budget int64     // bytes; 0 = unbounded

	mu       sync.Mutex
	tenants  map[string]*tenantEntry
	lru      *list.List // resident entries, most-recent first; values are *tenantEntry
	resident int64      // sum of resident entries' size

	// ticks counts acquisitions since the access counts were last halved.
	ticks int

	// onEvict, when set (NewDurableCore, before any request), fires off-lock
	// once for every decoded map that has left the cache and has no holder
	// left, so cluster backends can invalidate the worker-resident keys.
	onEvict func(id string, keys map[string]*ckks.EvalKey)

	// testBeforeLoad, when set (tests only), runs before a spill reload
	// reads the store.
	testBeforeLoad func()

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	declined  atomic.Int64 // reloads the frequency gate kept out of the cache
	stalls    atomic.Int64 // cold misses that blocked a caller (successfully)
	loadFails atomic.Int64 // spill reloads that failed; the tenant is dropped
	stallHist Histogram
}

type tenantEntry struct {
	id    string
	size  int64           // the upload bundle's bytes: the budget charge
	spill spillLayout     // this registration's spill file and its records
	names map[string]bool // key-id set, for admission-time validation
	keys  *keySet         // decoded keys when resident, nil when spilled
	elem  *list.Element   // LRU position when resident, nil when spilled
	freq  int             // aged access count, for the frequency gate
	load  *pendingLoad    // the spill reload in flight, if any
}

// pendingLoad is one spill reload and the callers blocked on it. Each
// waiter is counted under keyCache.mu before it blocks, and the loader
// gives the loaded map one hold per waiter, plus its own, before done
// closes: so a map the gate declines is shared by every caller that asked
// for it, and its eviction hook fires once, after the last of them. A
// caller joins only a load whose records cover the keys it needs; any
// other waits for the load to finish and acquires again.
type pendingLoad struct {
	done    chan struct{}
	recs    []spillRecord // the records it reads: all when admit
	admit   bool          // the gate admitted it at the start; it may become resident
	waiters int
	ks      *keySet // set before done closes; nil when the load failed
}

// covers reports whether ld reads every key of need that e holds (every
// key of e when need is nil).
func (ld *pendingLoad) covers(e *tenantEntry, need []string) bool {
	if need == nil {
		return len(ld.recs) == len(e.spill.recs)
	}
	for _, name := range need {
		if e.names[name] && !slices.ContainsFunc(ld.recs, func(r spillRecord) bool { return r.name == name }) {
			return false
		}
	}
	return true
}

// agingPeriod is how many acquisitions per registered tenant pass between
// two halvings of the access counts.
const agingPeriod = 16

// keySet is one decoded key map and the runs holding it (acquire takes a
// hold, release gives it back; holds and gone are guarded by keyCache.mu).
// A map leaves the cache (gone) by LRU eviction or when a re-registration
// supersedes it, and a reloaded map the gate declines never enters it;
// onEvict fires for it once no run holds it — at once, or at the last
// release — so worker keys outlive neither the cache entry nor the last
// run that could push them.
type keySet struct {
	id    string
	m     map[string]*ckks.EvalKey
	holds int
	gone  bool
}

func newKeyCache(params *ckks.Parameters, budget int64, store *keyStore) *keyCache {
	return &keyCache{
		params:  params,
		store:   store,
		budget:  budget,
		tenants: map[string]*tenantEntry{},
		lru:     list.New(),
	}
}

// register installs (or replaces) a tenant: spill its keys write-through
// to a fresh file, then make the decoded map resident. Registration
// bypasses the gate, and a re-registration keeps the tenant's access
// count. The superseded entry's file is removed at once, unless a load of
// it is in flight: completeLoad removes it then.
func (c *keyCache) register(id string, keys map[string]*ckks.EvalKey) error {
	e := &tenantEntry{id: id, keys: &keySet{id: id, m: keys}, names: make(map[string]bool, len(keys))}
	names := make([]string, 0, len(keys))
	for name := range keys {
		e.names[name] = true
		names = append(names, name)
	}
	if c.store != nil {
		slices.Sort(names)
		var err error
		// Registration fails rather than admit a tenant whose keys could
		// not spill: eviction would otherwise lose the only copy.
		if e.spill, err = c.store.Save(names, func(b []byte, i int) []byte {
			return appendKeyEntry(b, names[i], keys[names[i]])
		}); err != nil {
			return fmt.Errorf("serve: spilling key bundle: %w", err)
		}
		e.size = 8 + e.spill.total // the upload bundle: magic, count, these entries
	}
	c.mu.Lock()
	var due []*keySet
	var superseded string
	if old, ok := c.tenants[id]; ok {
		if old.elem != nil {
			c.lru.Remove(old.elem)
			due = c.leaveLocked(due, old)
		}
		if old.load == nil {
			superseded = old.spill.path
		}
		e.freq = old.freq
	}
	c.tenants[id] = e
	e.elem = c.lru.PushFront(e)
	c.resident += e.size
	due = append(due, c.enforceBudgetLocked()...)
	c.mu.Unlock()
	removeSpill(superseded)
	c.fireEvictHooks(due)
	return nil
}

// acquire returns the tenant's decoded keys with a hold on them, blocking
// on a spill reload when the tenant is registered but not resident; the
// caller gives the hold back with release. need names the keys the caller
// will use (nil: all of them): a reload the gate declines reads only those
// the tenant holds, so the map then holds exactly them. The bool is false
// only for unknown tenants — never registered, or dropped because their
// spill bundle could not be read back (completeLoad); either way the
// remedy is the same: re-register.
func (c *keyCache) acquire(id string, need []string) (*keySet, bool) {
	c.mu.Lock()
	e, ok := c.tenants[id]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.countLocked(e)
	if ks := e.keys; ks != nil {
		c.hits.Add(1)
		c.touchLocked(e)
		ks.holds++
		c.mu.Unlock()
		return ks, true
	}
	c.misses.Add(1)
	start := time.Now()
	ks, ok := c.loadLocked(e, need)
	// Failed loads are metered as loadFails, not stalls: a disk error is
	// not a cold-miss latency sample and would skew the histogram.
	if ok {
		c.stalls.Add(1)
		c.stallHist.Observe(time.Since(start))
	}
	return ks, ok
}

// countLocked adds one to e's access count and halves every tenant's
// count once agingPeriod acquisitions per registered tenant have passed.
// Without a budget nothing is evicted and nothing reads the counts, so
// the unbounded cache skips them.
func (c *keyCache) countLocked(e *tenantEntry) {
	if c.budget <= 0 {
		return
	}
	e.freq++
	if c.ticks++; c.ticks >= agingPeriod*len(c.tenants) {
		c.ticks = 0
		for _, t := range c.tenants {
			t.freq /= 2
		}
	}
}

// release gives back a hold taken by acquire. The last holder of a map
// that has left the cache fires its eviction hook.
func (c *keyCache) release(ks *keySet) {
	c.mu.Lock()
	ks.holds--
	due := ks.gone && ks.holds == 0
	c.mu.Unlock()
	if due {
		c.fireEvictHooks([]*keySet{ks})
	}
}

// get is acquire and release in one: the tenant's decoded key map, for
// callers that push no key to a worker.
func (c *keyCache) get(id string) (map[string]*ckks.EvalKey, bool) {
	ks, ok := c.acquire(id, nil)
	if !ok {
		return nil, false
	}
	c.release(ks)
	return ks.m, true
}

// names returns the tenant's key-id set without touching the LRU or
// loading anything — the admission path validates against this so a cold
// tenant never blocks Submit itself.
func (c *keyCache) keyNames(id string) (map[string]bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.tenants[id]
	if !ok {
		return nil, false
	}
	return e.names, true
}

// loadLocked resolves a spilled tenant under a hold, joining the reload
// in flight for e if it covers need, or else waiting for it to finish
// first. A load it starts reads every record if the gate would admit the
// map (or need is nil), only need's otherwise. Called with c.mu held;
// returns with it released.
func (c *keyCache) loadLocked(e *tenantEntry, need []string) (*keySet, bool) {
	for e.load != nil {
		ld := e.load
		if ld.covers(e, need) {
			ld.waiters++
			c.mu.Unlock()
			<-ld.done
			return ld.ks, ld.ks != nil
		}
		c.mu.Unlock()
		<-ld.done
		c.mu.Lock()
		var ok bool
		if e, ok = c.tenants[e.id]; !ok { // the load failed and dropped it
			c.mu.Unlock()
			return nil, false
		}
		if ks := e.keys; ks != nil { // resident now, or re-registered
			c.touchLocked(e)
			ks.holds++
			c.mu.Unlock()
			return ks, true
		}
	}
	ld := &pendingLoad{done: make(chan struct{}), recs: e.spill.recs, admit: true}
	if need != nil && !c.admitLocked(e) {
		ld.recs, ld.admit = e.spill.pick(need), false
	}
	e.load = ld
	c.mu.Unlock()
	return c.completeLoad(e, ld)
}

// completeLoad reads the load's records, deserializes them, and hands
// the map to the loader and every waiter with a hold each. The map becomes
// resident only if it holds every key, the gate admits it (again: the LRU
// may have moved since the load started) and the tenant has not
// re-registered meanwhile (the fresh registration wins, and the load,
// which kept the superseded file alive, removes it); otherwise it is
// out of the cache from the start, and its last release fires the
// eviction hook for exactly the keys it holds.
func (c *keyCache) completeLoad(e *tenantEntry, ld *pendingLoad) (*keySet, bool) {
	if c.testBeforeLoad != nil {
		c.testBeforeLoad()
	}
	keys := make(map[string]*ckks.EvalKey, len(ld.recs))
	err := c.store.Load(&e.spill, ld.recs, func(rec *spillRecord, entry []byte) error {
		// The decode reads entry in place; the key is a copy.
		key, err := decodeSpilledKey(rec.name, entry, c.params)
		if err != nil {
			return err
		}
		keys[rec.name] = key
		return nil
	})
	c.mu.Lock()
	e.load = nil
	current := c.tenants[e.id] == e
	if err != nil {
		// A tenant whose spill bundle cannot be read back is dropped
		// outright: leaving its metadata behind would keep admission
		// (keyNames) accepting requests that can never execute, failing
		// each one with a misleading "unknown tenant". Dropping makes
		// admission and execution agree — the tenant is unknown,
		// re-register — and removes the broken bundle's spill file.
		if current {
			delete(c.tenants, e.id)
		}
		c.loadFails.Add(1)
		close(ld.done)
		c.mu.Unlock()
		removeSpill(e.spill.path)
		return nil, false
	}
	ks := &keySet{id: e.id, m: keys, holds: 1 + ld.waiters}
	ld.ks = ks
	var due []*keySet
	switch {
	case !current:
		ks.gone = true // re-registered meanwhile
	case !ld.admit || !c.admitLocked(e):
		ks.gone = true
		c.declined.Add(1)
	default:
		e.keys = ks
		c.resident += e.size
		c.touchLocked(e)
		due = c.enforceBudgetLocked()
	}
	close(ld.done)
	c.mu.Unlock()
	if !current {
		removeSpill(e.spill.path)
	}
	c.fireEvictHooks(due)
	return ks, true
}

// decodeSpilledKey decodes one key record's verified entry: the key named
// name, whose image fills the rest of the entry exactly.
func decodeSpilledKey(name string, entry []byte, params *ckks.Parameters) (*ckks.EvalKey, error) {
	got, key, err := readKeyEntry(ckks.NewSliceDecoder(entry), params)
	if err != nil {
		return nil, err
	}
	if got != name {
		return nil, fmt.Errorf("serve: spill record %q holds key %q", name, got)
	}
	if extra := len(entry) - 2 - len(got) - key.EncodedLen(); extra != 0 {
		return nil, fmt.Errorf("serve: spill record %q: %d trailing bytes", name, extra)
	}
	return key, nil
}

// admitLocked is the frequency gate. It walks the LRU from its tail over
// the entries enforceBudgetLocked would evict to make room for e, and
// admits e only if e's access count is strictly greater than each of
// theirs: a tie keeps the resident tenant. A bundle larger than the whole
// budget is never admitted.
func (c *keyCache) admitLocked(e *tenantEntry) bool {
	if e.size > c.budget {
		return false
	}
	need := c.resident + e.size - c.budget
	for el := c.lru.Back(); need > 0 && el != nil; el = el.Prev() {
		victim := el.Value.(*tenantEntry)
		if victim.freq >= e.freq {
			return false
		}
		need -= victim.size
	}
	return true
}

func (c *keyCache) touchLocked(e *tenantEntry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	} else {
		e.elem = c.lru.PushFront(e)
	}
}

// enforceBudgetLocked evicts least-recently-used entries until resident
// bytes fit the budget, returning the maps whose hooks are due now.
// Dropping the decoded map is always safe: in-flight requests hold it, and
// the serialized bundle is on disk.
func (c *keyCache) enforceBudgetLocked() []*keySet {
	if c.budget <= 0 {
		return nil
	}
	var due []*keySet
	for c.resident > c.budget && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Back()).(*tenantEntry)
		due = c.leaveLocked(due, e)
		c.evictions.Add(1)
	}
	return due
}

// leaveLocked takes a resident entry's decoded map out of the cache (the
// caller has already unlinked e.elem) and appends the map to due when no
// run holds it; otherwise its last release fires the hook.
func (c *keyCache) leaveLocked(due []*keySet, e *tenantEntry) []*keySet {
	e.keys.gone = true
	if e.keys.holds == 0 {
		due = append(due, e.keys)
	}
	e.elem, e.keys = nil, nil
	c.resident -= e.size
	return due
}

func (c *keyCache) fireEvictHooks(due []*keySet) {
	if c.onEvict == nil {
		return
	}
	for _, ks := range due {
		c.onEvict(ks.id, ks.m)
	}
}

// KeyCacheStats is the JSON telemetry view of the key tier, surfaced under
// "key_cache" in /metrics and summarized in /healthz.
type KeyCacheStats struct {
	BudgetBytes     int64           `json:"budget_bytes"`
	ResidentBytes   int64           `json:"resident_bytes"`
	ResidentTenants int             `json:"resident_tenants"`
	SpilledTenants  int             `json:"spilled_tenants"`
	Hits            int64           `json:"hits"`
	Misses          int64           `json:"misses"`
	Evictions       int64           `json:"evictions"`
	ColdMissStalls  int64           `json:"cold_miss_stalls"`
	ColdMissStallMs *LatencySummary `json:"cold_miss_stall_ms,omitempty"`
	// SpillLoadFails counts spill reloads that failed (disk error,
	// corruption); each one drops its tenant, who must re-register.
	SpillLoadFails int64 `json:"spill_load_failures"`
	// AdmissionsDeclined counts spill reloads the frequency gate kept out
	// of the cache: each served the requests that asked for it and left.
	AdmissionsDeclined int64 `json:"admissions_declined"`
	// SpillBytesRead counts the spill-file bytes reloads have read: a
	// declined reload reads only the records of the keys its run uses.
	SpillBytesRead int64 `json:"spill_bytes_read"`
}

func (c *keyCache) stats() KeyCacheStats {
	c.mu.Lock()
	s := KeyCacheStats{
		BudgetBytes:     c.budget,
		ResidentBytes:   c.resident,
		ResidentTenants: c.lru.Len(),
		SpilledTenants:  len(c.tenants) - c.lru.Len(),
	}
	c.mu.Unlock()
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	s.Evictions = c.evictions.Load()
	s.AdmissionsDeclined = c.declined.Load()
	s.ColdMissStalls = c.stalls.Load()
	s.SpillLoadFails = c.loadFails.Load()
	if c.store != nil {
		s.SpillBytesRead = c.store.bytesRead.Load()
	}
	if s.ColdMissStalls > 0 {
		sum := c.stallHist.Summary()
		s.ColdMissStallMs = &sum
	}
	return s
}
