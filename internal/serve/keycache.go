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
	// for every evicted tenant with the decoded map that was dropped, so
	// cluster backends can invalidate the corresponding worker-resident keys.
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
	keys  map[string]*ckks.EvalKey
	elem  *list.Element // LRU position when resident, nil when spilled
}

type evictedTenant struct {
	id   string
	keys map[string]*ckks.EvalKey
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
	e := &tenantEntry{id: id, keys: keys, names: make(map[string]bool, len(keys))}
	for name := range keys {
		e.names[name] = true
	}
	if c.store != nil {
		var buf bytes.Buffer
		if err := WriteKeyBundle(&buf, keys); err != nil {
			return fmt.Errorf("serve: serializing key bundle: %w", err)
		}
		e.size = int64(buf.Len())
		e.hash = bundleHash(buf.Bytes())
		// Reserve the content address before Save's existence check: a
		// concurrent replace of the hash's last other referent could
		// otherwise sweep the file between that check and the install
		// below.
		c.mu.Lock()
		c.hashRefs[e.hash]++
		c.mu.Unlock()
		// Registration fails rather than admit a tenant whose keys could
		// not spill: eviction would otherwise lose the only copy.
		if err := c.store.Save(e.hash, buf.Bytes()); err != nil {
			c.mu.Lock()
			c.releaseHashLocked(e.hash)
			c.mu.Unlock()
			return fmt.Errorf("serve: spilling key bundle: %w", err)
		}
	}
	c.mu.Lock()
	if old, ok := c.tenants[id]; ok {
		if old.elem != nil {
			c.lru.Remove(old.elem)
			old.elem = nil
			c.resident -= old.size
		}
		// The superseded bundle's spill file is garbage once no other
		// tenant references its hash.
		c.releaseHashLocked(old.hash)
	}
	c.tenants[id] = e
	e.elem = c.lru.PushFront(e)
	c.resident += e.size
	evicted := c.enforceBudgetLocked()
	c.mu.Unlock()
	c.fireEvictHooks(evicted)
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

// get returns the tenant's decoded key map, blocking on a spill reload
// when the tenant is registered but not resident. The bool is false only
// for unknown tenants — never registered, or dropped because their spill
// bundle could not be read back (completeLoad); either way the remedy is
// the same: re-register.
func (c *keyCache) get(id string) (map[string]*ckks.EvalKey, bool) {
	c.mu.Lock()
	e, ok := c.tenants[id]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	if e.keys != nil {
		c.hits.Add(1)
		c.touchLocked(e)
		keys := e.keys
		c.mu.Unlock()
		return keys, true
	}
	c.misses.Add(1)
	start := time.Now()
	keys, ok := c.loadLocked(id)
	// Failed loads are metered as loadFails, not stalls: a disk error is
	// not a cold-miss latency sample and would skew the histogram.
	if ok {
		c.stalls.Add(1)
		c.stallHist.Observe(time.Since(start))
	}
	return keys, ok
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

// loadLocked resolves a spilled tenant, deduplicating concurrent loads.
// Called with c.mu held; returns with it released.
func (c *keyCache) loadLocked(id string) (map[string]*ckks.EvalKey, bool) {
	for {
		e, ok := c.tenants[id]
		if !ok {
			c.mu.Unlock()
			return nil, false
		}
		if e.keys != nil {
			c.touchLocked(e)
			keys := e.keys
			c.mu.Unlock()
			return keys, true
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
// (unless the tenant re-registered meanwhile — the fresh registration
// wins). Callers must hold the inflight slot; it is released here.
func (c *keyCache) completeLoad(id string, e *tenantEntry, ch chan struct{}, hash string, size int64) (map[string]*ckks.EvalKey, bool) {
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
	var evicted []evictedTenant
	if cur, ok := c.tenants[id]; ok && cur == e && cur.keys == nil {
		cur.keys = keys
		c.resident += size
		c.touchLocked(cur)
		evicted = c.enforceBudgetLocked()
	}
	c.mu.Unlock()
	c.fireEvictHooks(evicted)
	return keys, true
}

func (c *keyCache) touchLocked(e *tenantEntry) {
	if e.elem != nil {
		c.lru.MoveToFront(e.elem)
	} else {
		e.elem = c.lru.PushFront(e)
	}
}

// enforceBudgetLocked evicts least-recently-used entries until resident
// bytes fit the budget. Dropping the decoded map is always safe: in-flight
// requests hold their own reference, and the serialized bundle is on disk.
func (c *keyCache) enforceBudgetLocked() []evictedTenant {
	if c.budget <= 0 {
		return nil
	}
	var evicted []evictedTenant
	for c.resident > c.budget && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Back()).(*tenantEntry)
		evicted = append(evicted, evictedTenant{id: e.id, keys: e.keys})
		e.elem = nil
		e.keys = nil
		c.resident -= e.size
		c.evictions.Add(1)
	}
	return evicted
}

func (c *keyCache) fireEvictHooks(evicted []evictedTenant) {
	if c.onEvict == nil {
		return
	}
	for _, ev := range evicted {
		c.onEvict(ev.id, ev.keys)
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
