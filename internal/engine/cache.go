package engine

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

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

// ShardStats is one shard's slice of the cache counters.
type ShardStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	BytesCached   int64  `json:"bytes_cached"`
}

// CacheStats is a point-in-time snapshot of a SpaceCache's counters,
// aggregated over all shards, with the per-shard breakdown attached so
// operators can spot skewed fingerprint distributions.
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

	// Shards is the per-shard breakdown (len 1 for an unsharded cache).
	Shards []ShardStats `json:"shards,omitempty"`
}

// SpaceCache is a concurrency-safe LRU of counted plan spaces keyed by
// query fingerprint, sharded GOMAXPROCS ways by fingerprint prefix so
// concurrent Prepare traffic for distinct queries takes distinct locks
// (the ROADMAP's "shared-nothing shard per CPU"). Each shard is a
// flightLRU: it collapses concurrent misses for one fingerprint into a
// single build, evicts least-recently-used spaces beyond its capacity
// and byte-budget slice, and drops every stale space the moment it
// observes a newer catalog schema version (table/column/index changes —
// a statistics refresh only invalidates cost overlays, never
// structures). A single cache may be shared by any number of Engines
// and Sessions.
type SpaceCache struct {
	shards []*flightLRU[*StructureSpace]

	// version is the newest catalog schema version any caller has presented.
	// A bump broadcasts invalidation to every shard immediately (see
	// GetOrBuild) — stale spaces must release their memory promptly,
	// not only when their own shard next sees traffic — while the
	// steady state stays a single atomic load per lookup.
	version atomic.Uint64

	// listeners are notified (outside any shard lock) for every entry
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
// and at most DefaultCacheBytes of estimated space memory, sharded
// GOMAXPROCS ways (capped so every shard keeps at least one entry of
// capacity — capacity 1 yields one shard with globally exact LRU
// order); capacities below one are clamped to one. Adjust or disable
// the byte budget with SetByteBudget.
func NewSpaceCache(capacity int) *SpaceCache {
	return newSpaceCacheSharded(capacity, runtime.GOMAXPROCS(0))
}

// newSpaceCacheSharded is NewSpaceCache with an explicit shard count —
// 1 yields a single-lock cache with globally exact LRU order; more
// shards trade LRU exactness across shards for lock locality. The
// capacity and the byte budget are split evenly across shards.
func newSpaceCacheSharded(capacity, shards int) *SpaceCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity // every shard must hold at least one entry
	}
	c := &SpaceCache{shards: make([]*flightLRU[*StructureSpace], shards)}
	per := (capacity + shards - 1) / shards
	perBytes := int64(DefaultCacheBytes) / int64(shards)
	for i := range c.shards {
		c.shards[i] = newFlightLRU[*StructureSpace]("space", per, perBytes, c.notifyRemoved)
	}
	return c
}

// AddRemoveListener registers fn under key to be called (outside the
// shard locks) with the fingerprint of every entry the cache drops.
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
// be called without any shard lock held.
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

// shardFor routes a fingerprint to its shard by prefix. The fingerprint
// is a SHA-256 digest, so the first eight bytes are uniformly
// distributed and any shard count divides the traffic evenly.
func (c *SpaceCache) shardFor(fp Fingerprint) *flightLRU[*StructureSpace] {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[binary.LittleEndian.Uint64(fp[:8])%uint64(len(c.shards))]
}

// SetByteBudget replaces the cache's byte budget (0 disables byte-based
// eviction entirely), splitting it evenly across shards, and
// immediately evicts down to the new budget.
func (c *SpaceCache) SetByteBudget(n int64) {
	per := n / int64(len(c.shards))
	if n > 0 && per == 0 {
		per = 1 // a tiny but non-zero budget must still evict
	}
	for _, sh := range c.shards {
		sh.setByteBudget(per)
	}
}

// Stats aggregates a snapshot of every shard's counters and attaches
// the per-shard breakdown.
func (c *SpaceCache) Stats() CacheStats {
	st := CacheStats{
		Shards:     make([]ShardStats, len(c.shards)),
		Arithmetic: make(map[string]int),
	}
	for i, sh := range c.shards {
		s, budget := sh.stats(func(ss *StructureSpace) {
			if ss != nil && ss.Space != nil {
				st.Arithmetic[ss.Space.Arithmetic()]++
			}
		})
		st.Shards[i] = s
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
		st.Invalidations += s.Invalidations
		st.Entries += s.Entries
		st.BytesCached += s.BytesCached
		st.Capacity += sh.cap
		st.ByteBudget += budget
	}
	if len(st.Arithmetic) == 0 {
		st.Arithmetic = nil
	}
	return st
}

// Invalidate removes every cached space built against a catalog version
// older than version, across all shards. The fingerprint already embeds
// the version, so stale entries could never be returned — invalidation
// exists to release their memory promptly instead of waiting for LRU
// pressure. A stale build still in flight completes for its waiters
// but is not cached.
func (c *SpaceCache) Invalidate(version uint64) {
	for {
		v := c.version.Load()
		if version <= v {
			return // someone already broadcast this version (or newer)
		}
		if c.version.CompareAndSwap(v, version) {
			break
		}
	}
	for _, sh := range c.shards {
		sh.invalidate([2]uint64{version})
	}
}

// GetOrBuild returns the space for fp, building it with build on a miss.
// version is the current catalog schema version; observing a newer version than
// any seen before broadcasts invalidation to every shard (an atomic
// check keeps the no-bump steady state off the other shards' locks).
// Exactly one caller runs build per miss — every other concurrent
// caller for the same fingerprint blocks until that build finishes and
// then shares the result (counted spaces are immutable and safe to
// share). A failed build is not cached: the error is returned to
// everyone waiting and the next call retries.
func (c *SpaceCache) GetOrBuild(fp Fingerprint, version uint64, build func() (*StructureSpace, error)) (*StructureSpace, bool, error) {
	if version > c.version.Load() {
		c.Invalidate(version)
	}
	return c.shardFor(fp).getOrBuild(fp, Fingerprint{}, [2]uint64{version}, build)
}
