package serve

import (
	"bytes"
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cinnamon/internal/ckks"
)

// keyCache is the budgeted tenant-key tier: per-tenant *metadata* (key-name
// set, content hash, serialized size) stays resident for every registered
// tenant, while the decoded eval-key maps — the tens-of-MB part — live in a
// hard-budget LRU. Registration is write-through: the bundle's
// deterministic serialized image spills to the content-addressed on-disk
// store immediately, so eviction is just dropping the decoded map, and a
// later access reloads + deserializes it (deduplicated across concurrent
// callers, so a cold tenant costs one disk read no matter how many
// requests pile up behind it).
//
// The cache is also the one owner of what cluster workers hold (see
// keySet and onEvict).
//
// Budget accounting uses the serialized bundle length as the residency
// cost proxy — it tracks the decoded footprint within a small constant
// factor and is exact, cheap and stable across runs. Budget 0 means
// unbounded: no serialization, no spill, no eviction — byte-for-byte the
// pre-cache behavior, which keeps single-tenant deployments and the test
// suite on the zero-overhead path.
type keyCache struct {
	params *ckks.Parameters
	store  *keyStore // nil iff unbounded
	budget int64     // bytes; 0 = unbounded

	mu       sync.Mutex
	tenants  map[string]*tenantEntry
	lru      *list.List // resident entries, most-recent first; values are *tenantEntry
	resident int64      // sum of resident entries' size

	// hashRefs counts tenants (and in-flight registrations) referencing
	// each spilled bundle hash; the file is deleted when the count drops
	// to zero, so key rotation and tenant churn cannot grow the spill dir
	// without bound. Only populated when store != nil.
	hashRefs map[string]int

	inflight map[string]chan struct{} // closed when a spill load completes

	// onEvict, when set (NewDurableCore, before any request), fires off-lock
	// once for every decoded map that has left the cache and has no holder
	// left, so cluster backends can invalidate the worker-resident keys.
	onEvict func(id string, keys map[string]*ckks.EvalKey)

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	stalls    atomic.Int64 // cold misses that blocked a caller (successfully)
	loadFails atomic.Int64 // spill reloads that failed; the tenant is dropped
	stallHist Histogram
}

type tenantEntry struct {
	id    string
	hash  string          // content address of the serialized bundle
	size  int64           // serialized bundle bytes
	names map[string]bool // key-id set, for admission-time validation
	keys  *keySet         // decoded keys when resident, nil when spilled
	elem  *list.Element   // LRU position when resident, nil when spilled
}

// keySet is one decoded key map and the runs holding it (acquire takes a
// hold, release gives it back; holds and gone are guarded by keyCache.mu).
// A map leaves the cache (gone) by LRU eviction or when a re-registration
// supersedes it; onEvict fires for it once no run holds it — at once, or at
// the last release — so worker keys outlive neither the cache entry nor
// the last run that could push them.
type keySet struct {
	id    string
	m     map[string]*ckks.EvalKey
	holds int
	gone  bool
}

func newKeyCache(params *ckks.Parameters, budget int64, store *keyStore) *keyCache {
	return &keyCache{
		params:   params,
		store:    store,
		budget:   budget,
		tenants:  map[string]*tenantEntry{},
		lru:      list.New(),
		hashRefs: map[string]int{},
		inflight: map[string]chan struct{}{},
	}
}

// register installs (or replaces) a tenant: spill the serialized bundle
// write-through, then make the decoded map resident.
func (c *keyCache) register(id string, keys map[string]*ckks.EvalKey) error {
	e := &tenantEntry{id: id, keys: &keySet{id: id, m: keys}, names: make(map[string]bool, len(keys))}
	for name := range keys {
		e.names[name] = true
	}
	if c.store != nil {
		bundle, err := appendKeyBundle(nil, keys)
		if err != nil {
			return fmt.Errorf("serve: serializing key bundle: %w", err)
		}
		e.size = int64(len(bundle))
		e.hash = bundleHash(bundle)
		// Reserve the content address before Save: a concurrent replace of
		// the hash's last other referent could otherwise sweep the file
		// between Save's rename and the install below.
		c.mu.Lock()
		c.hashRefs[e.hash]++
		c.mu.Unlock()
		// Registration fails rather than admit a tenant whose keys could
		// not spill: eviction would otherwise lose the only copy.
		if err := c.store.Save(e.hash, bundle); err != nil {
			c.mu.Lock()
			c.releaseHashLocked(e.hash)
			c.mu.Unlock()
			return fmt.Errorf("serve: spilling key bundle: %w", err)
		}
	}
	c.mu.Lock()
	var due []*keySet
	if old, ok := c.tenants[id]; ok {
		if old.elem != nil {
			c.lru.Remove(old.elem)
			due = c.leaveLocked(due, old)
		}
		// The superseded bundle's spill file is garbage once no other
		// tenant references its hash.
		c.releaseHashLocked(old.hash)
	}
	c.tenants[id] = e
	e.elem = c.lru.PushFront(e)
	c.resident += e.size
	due = append(due, c.enforceBudgetLocked()...)
	c.mu.Unlock()
	c.fireEvictHooks(due)
	return nil
}

// releaseHashLocked drops one reference to a spilled bundle and deletes
// the file when it was the last. The unlink happens under c.mu so it
// cannot interleave with a concurrent register's reserve-then-Save of the
// same content (the reservation would keep the count above zero).
func (c *keyCache) releaseHashLocked(hash string) {
	if c.store == nil || hash == "" {
		return
	}
	if c.hashRefs[hash]--; c.hashRefs[hash] <= 0 {
		delete(c.hashRefs, hash)
		c.store.Remove(hash)
	}
}

// acquire returns the tenant's decoded keys with a hold on them, blocking
// on a spill reload when the tenant is registered but not resident; the
// caller gives the hold back with release. The bool is false only for
// unknown tenants — never registered, or dropped because their spill
// bundle could not be read back (completeLoad); either way the remedy is
// the same: re-register.
func (c *keyCache) acquire(id string) (*keySet, bool) {
	c.mu.Lock()
	e, ok := c.tenants[id]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	if ks := e.keys; ks != nil {
		c.hits.Add(1)
		c.touchLocked(e)
		ks.holds++
		c.mu.Unlock()
		return ks, true
	}
	c.misses.Add(1)
	start := time.Now()
	ks, ok := c.loadLocked(id)
	// Failed loads are metered as loadFails, not stalls: a disk error is
	// not a cold-miss latency sample and would skew the histogram.
	if ok {
		c.stalls.Add(1)
		c.stallHist.Observe(time.Since(start))
	}
	return ks, ok
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
	ks, ok := c.acquire(id)
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

// loadLocked resolves a spilled tenant under a hold, deduplicating
// concurrent loads. Called with c.mu held; returns with it released.
func (c *keyCache) loadLocked(id string) (*keySet, bool) {
	for {
		e, ok := c.tenants[id]
		if !ok {
			c.mu.Unlock()
			return nil, false
		}
		if ks := e.keys; ks != nil {
			c.touchLocked(e)
			ks.holds++
			c.mu.Unlock()
			return ks, true
		}
		if ch, busy := c.inflight[id]; busy {
			c.mu.Unlock()
			<-ch
			c.mu.Lock()
			continue
		}
		ch := make(chan struct{})
		c.inflight[id] = ch
		hash, size := e.hash, e.size
		c.mu.Unlock()
		return c.completeLoad(id, e, ch, hash, size)
	}
}

// completeLoad reads the spill file, deserializes, and installs the keys
// with the caller's hold on them (unless the tenant re-registered meanwhile
// — the fresh registration wins, and the caller's map is out of the cache
// from the start). Callers must hold the inflight slot; it is released here.
func (c *keyCache) completeLoad(id string, e *tenantEntry, ch chan struct{}, hash string, size int64) (*keySet, bool) {
	var keys map[string]*ckks.EvalKey
	bundle, err := c.store.Load(hash)
	if err == nil {
		keys, err = ReadKeyBundle(bytes.NewReader(bundle), c.params)
	}
	c.mu.Lock()
	delete(c.inflight, id)
	close(ch)
	if err != nil {
		// A tenant whose spill bundle cannot be read back is dropped
		// outright: leaving its metadata behind would keep admission
		// (keyNames) accepting requests that can never execute, failing
		// each one with a misleading "unknown tenant". Dropping makes
		// admission and execution agree — the tenant is unknown,
		// re-register — and releases the broken bundle's spill file.
		if cur, ok := c.tenants[id]; ok && cur == e && cur.keys == nil {
			delete(c.tenants, id)
			c.releaseHashLocked(cur.hash)
		}
		c.loadFails.Add(1)
		c.mu.Unlock()
		return nil, false
	}
	ks := &keySet{id: id, m: keys, holds: 1}
	var due []*keySet
	if cur, ok := c.tenants[id]; ok && cur == e && cur.keys == nil {
		cur.keys = ks
		c.resident += size
		c.touchLocked(cur)
		due = c.enforceBudgetLocked()
	} else {
		ks.gone = true // re-registered meanwhile: the map never enters the cache
	}
	c.mu.Unlock()
	c.fireEvictHooks(due)
	return ks, true
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
	s.ColdMissStalls = c.stalls.Load()
	s.SpillLoadFails = c.loadFails.Load()
	if s.ColdMissStalls > 0 {
		sum := c.stallHist.Summary()
		s.ColdMissStallMs = &sum
	}
	return s
}
