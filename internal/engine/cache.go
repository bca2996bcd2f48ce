package engine

import (
	"container/list"
	"encoding/binary"
	"fmt"
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

// cacheEntry is one fingerprint's slot. It is inserted before the build
// runs so that concurrent Prepare calls for the same fingerprint find it
// and wait on ready instead of counting the space a second time
// (singleflight semantics). After ready closes, space/err are immutable.
type cacheEntry struct {
	fp      Fingerprint
	version uint64 // catalog schema version the space was built against
	bytes   int64  // estimated size, set when the build completes
	elem    *list.Element

	ready chan struct{}
	space *StructureSpace
	err   error
}

// cacheShard is one shared-nothing slice of the cache: its own mutex,
// entry map, LRU list, byte accounting, and counters. A fingerprint
// maps to exactly one shard, so unrelated queries never contend on one
// lock.
type cacheShard struct {
	mu       sync.Mutex
	owner    *SpaceCache
	cap      int
	maxBytes int64 // 0 = unlimited
	bytes    int64 // estimated bytes of ready entries
	entries  map[Fingerprint]*cacheEntry
	lru      *list.List // front = most recently used; values are *cacheEntry
	version  uint64     // newest catalog schema version observed

	// removed accumulates fingerprints dropped while the shard lock is
	// held; callers drain it after unlocking and notify the cache's
	// removal listeners (the overlay cache couples overlay lifetime to
	// structure lifetime through this).
	removed []Fingerprint

	hits, misses, evictions, invalidations uint64
}

// SpaceCache is a concurrency-safe LRU of counted plan spaces keyed by
// query fingerprint, sharded GOMAXPROCS ways by fingerprint prefix so
// concurrent Prepare traffic for distinct queries takes distinct locks
// (the ROADMAP's "shared-nothing shard per CPU"). Each shard collapses
// concurrent misses for one fingerprint into a single build, evicts
// least-recently-used spaces beyond its capacity and byte-budget slice,
// and drops every stale space the moment it observes a newer catalog
// schema version (table/column/index changes — a statistics refresh
// only invalidates cost overlays, never structures). A single cache may
// be shared by any number of Engines and Sessions.
type SpaceCache struct {
	shards []*cacheShard

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
// capacity); capacities below one are clamped to one. Adjust or disable
// the byte budget with SetByteBudget.
func NewSpaceCache(capacity int) *SpaceCache {
	return NewSpaceCacheSharded(capacity, runtime.GOMAXPROCS(0))
}

// NewSpaceCacheSharded is NewSpaceCache with an explicit shard count —
// 1 yields the classic single-lock cache with globally exact LRU order
// (tests and tiny deployments); more shards trade LRU exactness across
// shards for lock locality. The capacity and the byte budget are split
// evenly across shards.
func NewSpaceCacheSharded(capacity, shards int) *SpaceCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity // every shard must hold at least one entry
	}
	c := &SpaceCache{shards: make([]*cacheShard, shards)}
	per := (capacity + shards - 1) / shards
	perBytes := int64(DefaultCacheBytes) / int64(shards)
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			owner:    c,
			cap:      per,
			maxBytes: perBytes,
			entries:  make(map[Fingerprint]*cacheEntry),
			lru:      list.New(),
		}
	}
	return c
}

// AddRemoveListener registers fn under key to be called (outside the
// shard locks) with the fingerprint of every entry the cache drops.
// Re-registering an existing key replaces its listener instead of
// accumulating — engine.New uses the engine's OverlayCache as the key,
// so engine churn over shared caches keeps exactly one listener per
// distinct overlay cache. RemoveListener drops a key (callers retiring
// a shared cache's engine should pair the two).
func (c *SpaceCache) AddRemoveListener(key any, fn func(Fingerprint)) {
	c.listenerMu.Lock()
	if c.listeners == nil {
		c.listeners = make(map[any]func(Fingerprint))
	}
	c.listeners[key] = fn
	c.listenerMu.Unlock()
}

// RemoveListener unregisters the listener stored under key.
func (c *SpaceCache) RemoveListener(key any) {
	c.listenerMu.Lock()
	delete(c.listeners, key)
	c.listenerMu.Unlock()
}

// notifyRemoved fans dropped fingerprints out to the listeners. Must
// be called without any shard lock held.
func (c *SpaceCache) notifyRemoved(fps []Fingerprint) {
	if len(fps) == 0 {
		return
	}
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

// drainRemovedLocked hands back the shard's pending removal
// notifications (call while holding sh.mu; notify after unlocking).
func (sh *cacheShard) drainRemovedLocked() []Fingerprint {
	fps := sh.removed
	sh.removed = nil
	return fps
}

// shardFor routes a fingerprint to its shard by prefix. The fingerprint
// is a SHA-256 digest, so the first eight bytes are uniformly
// distributed and any shard count divides the traffic evenly.
func (c *SpaceCache) shardFor(fp Fingerprint) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[binary.LittleEndian.Uint64(fp[:8])%uint64(len(c.shards))]
}

// Shards reports the shard count.
func (c *SpaceCache) Shards() int { return len(c.shards) }

// SetByteBudget replaces the cache's byte budget (0 disables byte-based
// eviction entirely), splitting it evenly across shards, and
// immediately evicts down to the new budget.
func (c *SpaceCache) SetByteBudget(n int64) {
	per := n / int64(len(c.shards))
	if n > 0 && per == 0 {
		per = 1 // a tiny but non-zero budget must still evict
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.maxBytes = per
		sh.evictLocked()
		removed := sh.drainRemovedLocked()
		sh.mu.Unlock()
		c.notifyRemoved(removed)
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
		sh.mu.Lock()
		s := ShardStats{
			Hits:          sh.hits,
			Misses:        sh.misses,
			Evictions:     sh.evictions,
			Invalidations: sh.invalidations,
			Entries:       len(sh.entries),
			BytesCached:   sh.bytes,
		}
		for _, e := range sh.entries {
			select {
			case <-e.ready:
				if e.err == nil && e.space != nil && e.space.Space != nil {
					st.Arithmetic[e.space.Space.Arithmetic()]++
				}
			default: // still building; tier unknown
			}
		}
		sh.mu.Unlock()
		st.Shards[i] = s
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
		st.Invalidations += s.Invalidations
		st.Entries += s.Entries
		st.BytesCached += s.BytesCached
		st.Capacity += sh.cap
		st.ByteBudget += sh.maxBytes
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
// pressure.
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
		sh.mu.Lock()
		sh.invalidateLocked(version)
		removed := sh.drainRemovedLocked()
		sh.mu.Unlock()
		c.notifyRemoved(removed)
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
	return c.shardFor(fp).getOrBuild(fp, version, build)
}

func (sh *cacheShard) getOrBuild(fp Fingerprint, version uint64, build func() (*StructureSpace, error)) (*StructureSpace, bool, error) {
	sh.mu.Lock()
	sh.invalidateLocked(version)
	if e, ok := sh.entries[fp]; ok {
		sh.hits++
		sh.lru.MoveToFront(e.elem)
		removed := sh.drainRemovedLocked()
		sh.mu.Unlock()
		sh.owner.notifyRemoved(removed)
		<-e.ready
		return e.space, true, e.err
	}
	e := &cacheEntry{fp: fp, version: version, ready: make(chan struct{})}
	e.elem = sh.lru.PushFront(e)
	sh.entries[fp] = e
	sh.misses++
	sh.evictLocked()
	removed := sh.drainRemovedLocked()
	sh.mu.Unlock()
	sh.owner.notifyRemoved(removed)

	space, err := sh.runBuild(e, build)
	return space, false, err
}

func (sh *cacheShard) invalidateLocked(version uint64) {
	if version <= sh.version {
		return
	}
	sh.version = version
	for _, e := range sh.entries {
		if e.version >= version {
			continue
		}
		select {
		case <-e.ready:
		default:
			continue // still building; its builder removes it on error, LRU handles the rest
		}
		sh.removeLocked(e)
		sh.invalidations++
	}
}

// removeLocked drops an entry from the map, the LRU, and the byte
// accounting (in-flight entries carry zero bytes until they complete),
// and queues the removal notification.
func (sh *cacheShard) removeLocked(e *cacheEntry) {
	delete(sh.entries, e.fp)
	sh.lru.Remove(e.elem)
	sh.bytes -= e.bytes
	sh.removed = append(sh.removed, e.fp)
}

// runBuild executes build and completes the entry — on success, on
// error, and on panic alike. The completion must not be skipped: an
// entry whose ready channel never closes would wedge every current and
// future waiter on its fingerprint (net/http recovers handler panics,
// so the server would otherwise keep running with a poisoned slot).
func (sh *cacheShard) runBuild(e *cacheEntry, build func() (*StructureSpace, error)) (space *StructureSpace, err error) {
	finished := false
	defer func() {
		if !finished {
			// build panicked; fail the entry for everyone waiting and
			// let the panic propagate to this caller.
			err = fmt.Errorf("engine: space build panicked for fingerprint %s", e.fp)
		}
		sh.mu.Lock()
		e.space, e.err = space, err
		close(e.ready)
		if err != nil {
			// Failed builds are not cached — but only remove the entry
			// if it still owns the slot (it may already have been
			// LRU-evicted or invalidated).
			if cur, ok := sh.entries[e.fp]; ok && cur == e {
				sh.removeLocked(e)
			}
		} else if cur, ok := sh.entries[e.fp]; ok && cur == e {
			// The size is only known now that the space exists: charge
			// it and shed colder entries if the budget is blown.
			e.bytes = space.SizeBytes()
			sh.bytes += e.bytes
			sh.evictLocked()
		}
		removed := sh.drainRemovedLocked()
		sh.mu.Unlock()
		sh.owner.notifyRemoved(removed)
	}()
	space, err = build()
	finished = true
	return space, err
}

// evictLocked trims the LRU while the shard exceeds its entry cap or
// byte-budget slice, skipping entries whose build is still in flight
// (their waiters hold references; evicting a completed space only drops
// the cache's reference — concurrent readers of an evicted space keep
// working on their copy of the pointer). The most-recently-used entry
// is never evicted: a single space bigger than the whole byte budget
// stays cached alone rather than being rebuilt on every request.
func (sh *cacheShard) evictLocked() {
	over := func() bool {
		return len(sh.entries) > sh.cap || (sh.maxBytes > 0 && sh.bytes > sh.maxBytes)
	}
	for elem := sh.lru.Back(); elem != nil && elem != sh.lru.Front() && over(); {
		prev := elem.Prev()
		e := elem.Value.(*cacheEntry)
		select {
		case <-e.ready:
			sh.removeLocked(e)
			sh.evictions++
		default:
		}
		elem = prev
	}
}
