package engine

import "sync"

// DefaultCacheCapacity is the entry cap of the cache an Engine creates
// when none is injected: a hard ceiling on cached spaces regardless of
// their size.
const DefaultCacheCapacity = 64

// DefaultCacheBytes is the default byte budget of a new SpaceCache.
// Counted spaces pin their whole MEMO plus the per-operator count
// tables, and their sizes vary by orders of magnitude (a single-table
// query's space is a few KB; Q8 with Cartesian products is MBs), so
// eviction is driven by estimated bytes (StructureSpace.SizeBytes), with
// the entry cap as a secondary bound.
const DefaultCacheBytes = 512 << 20

// CacheStats is a point-in-time snapshot of a SpaceCache's counters.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`     // LRU pressure (entry cap or byte budget)
	Invalidations uint64 `json:"invalidations"` // catalog schema-version bumps
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	BytesCached   int64  `json:"bytes_cached"` // estimated bytes pinned by ready entries
	ByteBudget    int64  `json:"byte_budget"`  // 0 = unlimited

	// Arithmetic counts resident spaces by the tier serving them
	// ("uint64", "wide"), so /stats shows which engine each
	// cached query landed on.
	Arithmetic map[string]int `json:"arithmetic,omitempty"`
}

// SpaceCache is a concurrency-safe LRU of counted plan spaces keyed by
// query fingerprint: one flightLRU. It collapses concurrent misses for
// one fingerprint into a single build, evicts least-recently-used spaces
// beyond its capacity and byte budget, and drops every stale space the
// moment it observes a newer catalog schema version (table/column/index
// changes — a statistics refresh only invalidates cost overlays, never
// structures). A single cache may be shared by any number of Engines
// and Sessions.
type SpaceCache struct {
	lru *flightLRU[*StructureSpace]

	// listeners are notified (outside the cache lock) for every entry
	// the cache drops — eviction, invalidation, or failed build. The
	// engine registers its OverlayCache here so cost overlays never
	// outlive the structure they were built over (an overlay pins its
	// structure's memo; without the hook an evicted structure would
	// stay resident, unaccounted, for as long as any overlay cached
	// over it survived). Registration is keyed so that any number of
	// engines sharing one (SpaceCache, OverlayCache) pair register a
	// single listener — repeated engine.New over shared caches must not
	// grow this map.
	listenerMu sync.Mutex
	listeners  map[any]func(Fingerprint)
}

// NewSpaceCache returns a cache holding at most capacity counted spaces
// (clamped to at least one) and at most DefaultCacheBytes of estimated
// space memory. Adjust or disable the byte budget with SetByteBudget.
func NewSpaceCache(capacity int) *SpaceCache {
	c := &SpaceCache{}
	c.lru = newFlightLRU[*StructureSpace]("space", max(capacity, 1), DefaultCacheBytes, c.notifyRemoved)
	return c
}

// AddRemoveListener registers fn under key to be called (outside the
// cache lock) with the fingerprint of every entry the cache drops.
// Re-registering an existing key replaces its listener instead of
// accumulating — engine.New uses the engine's OverlayCache as the key,
// so engine churn over shared caches keeps exactly one listener per
// distinct overlay cache.
func (c *SpaceCache) AddRemoveListener(key any, fn func(Fingerprint)) {
	c.listenerMu.Lock()
	if c.listeners == nil {
		c.listeners = make(map[any]func(Fingerprint))
	}
	c.listeners[key] = fn
	c.listenerMu.Unlock()
}

// notifyRemoved fans dropped fingerprints out to the listeners. Must
// be called without the cache lock held.
func (c *SpaceCache) notifyRemoved(fps []Fingerprint) {
	c.listenerMu.Lock()
	listeners := make([]func(Fingerprint), 0, len(c.listeners))
	for _, fn := range c.listeners {
		listeners = append(listeners, fn)
	}
	c.listenerMu.Unlock()
	for _, fn := range listeners {
		for _, fp := range fps {
			fn(fp)
		}
	}
}

// SetByteBudget replaces the cache's byte budget (0 disables byte-based
// eviction entirely) and immediately evicts down to the new budget.
func (c *SpaceCache) SetByteBudget(n int64) {
	c.lru.setByteBudget(n)
}

// Stats snapshots the counters and counts resident spaces per
// arithmetic tier.
func (c *SpaceCache) Stats() CacheStats {
	arith := make(map[string]int)
	s, budget := c.lru.stats(func(ss *StructureSpace) {
		if ss != nil && ss.Space != nil {
			arith[ss.Space.Arithmetic()]++
		}
	})
	st := CacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Entries:       s.Entries,
		Capacity:      c.lru.cap,
		BytesCached:   s.BytesCached,
		ByteBudget:    budget,
	}
	if len(arith) > 0 {
		st.Arithmetic = arith
	}
	return st
}

// Invalidate removes every cached space built against a catalog version
// older than version. The fingerprint already embeds the version, so
// stale entries could never be returned — invalidation exists to
// release their memory promptly instead of waiting for LRU pressure. A
// stale build still in flight completes for its waiters but is not
// cached.
func (c *SpaceCache) Invalidate(version uint64) {
	c.lru.invalidate([2]uint64{version})
}

// GetOrBuild returns the space for fp, building it with build on a miss.
// version is the current catalog schema version; observing a newer
// version than any seen before invalidates every older space first.
// Exactly one caller runs build per miss — every other concurrent
// caller for the same fingerprint blocks until that build finishes and
// then shares the result (counted spaces are immutable and safe to
// share). A failed build is not cached: the error is returned to
// everyone waiting and the next call retries.
func (c *SpaceCache) GetOrBuild(fp Fingerprint, version uint64, build func() (*StructureSpace, error)) (*StructureSpace, bool, error) {
	return c.lru.getOrBuild(fp, Fingerprint{}, [2]uint64{version}, build)
}
