package engine

import (
	"container/list"
	"fmt"
	"sync"
)

// flightLRU is the singleflight LRU both cache tiers are built from:
// SpaceCache is one instance holding counted structures, OverlayCache
// is one instance holding cost overlays. It owns every invariant the
// tiers share:
//
//   - An entry is inserted before its build runs, so concurrent callers
//     for one key wait on ready instead of building a second time.
//     ready closes on success, error and panic alike; failed builds are
//     never cached.
//   - Eviction runs under an entry cap and an optional byte budget,
//     skips entries still in flight, and never evicts the
//     most-recently-used entry.
//   - Invalidation is versioned: an entry built against an older
//     component of the newest observed version pair is dropped (the
//     schema version for structures; the statistics version and the
//     feedback epoch for overlays). Keys embed the version, so a stale
//     entry could never be returned — dropping it releases memory.
//   - An invalidated or dropped entry still in flight is doomed: its
//     waiters get the value, but it is removed on completion instead of
//     being cached.
//   - An entry still in flight is removed only by its own builder.
type flightLRU[V interface{ SizeBytes() int64 }] struct {
	kind     string // "space" or "overlay", for the panic error
	cap      int
	onRemove func([]Fingerprint) // nil = no removal notifications

	mu       sync.Mutex
	maxBytes int64 // 0 = unlimited
	bytes    int64 // estimated bytes of ready entries
	entries  map[Fingerprint]*flightEntry[V]
	lru      *list.List // front = most recently used; values are *flightEntry[V]
	version  [2]uint64  // newest observed, per component

	// removed accumulates keys dropped while mu is held; unlock hands
	// them to onRemove after releasing the lock.
	removed []Fingerprint

	hits, misses, evictions, invalidations uint64
}

// flightEntry is one key's slot. done and doomed are guarded by the
// cache's mutex; waiters block on ready instead. After ready closes,
// val and err are immutable.
type flightEntry[V any] struct {
	key     Fingerprint
	parent  Fingerprint // the structure an overlay costs; zero for structures
	version [2]uint64
	bytes   int64 // estimated size, set when the build completes
	elem    *list.Element
	done    bool // the build has completed (ready is closed)
	doomed  bool

	ready chan struct{}
	val   V
	err   error
}

func newFlightLRU[V interface{ SizeBytes() int64 }](kind string, capacity int, maxBytes int64, onRemove func([]Fingerprint)) *flightLRU[V] {
	return &flightLRU[V]{
		kind:     kind,
		cap:      capacity,
		onRemove: onRemove,
		maxBytes: maxBytes,
		entries:  make(map[Fingerprint]*flightEntry[V]),
		lru:      list.New(),
	}
}

// unlock releases mu, then delivers the removals queued while it was
// held — listeners never run under the lock.
func (c *flightLRU[V]) unlock() {
	removed := c.removed
	c.removed = nil
	c.mu.Unlock()
	if len(removed) > 0 {
		c.onRemove(removed)
	}
}

// getOrBuild returns the value for key, building it with build on a
// miss. version is the caller's current version pair; observing a
// newer one invalidates older entries first. Exactly one caller runs
// build per miss — every other concurrent caller for the key blocks
// until that build finishes and shares the result.
func (c *flightLRU[V]) getOrBuild(key, parent Fingerprint, version [2]uint64, build func() (V, error)) (V, bool, error) {
	c.mu.Lock()
	c.invalidateLocked(version)
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &flightEntry[V]{key: key, parent: parent, version: version, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.evictLocked()
	c.unlock()

	v, err := c.runBuild(e, build)
	return v, false, err
}

// runBuild executes build and completes the entry — on success, on
// error, and on panic alike. The completion must not be skipped: an
// entry whose ready channel never closes would wedge every current and
// future waiter on its key (net/http recovers handler panics, so the
// server would otherwise keep running with a poisoned slot).
func (c *flightLRU[V]) runBuild(e *flightEntry[V], build func() (V, error)) (v V, err error) {
	finished := false
	defer func() {
		if !finished {
			// build panicked; fail the entry for everyone waiting and
			// let the panic propagate to this caller.
			err = fmt.Errorf("engine: %s build panicked for fingerprint %s", c.kind, e.key)
		}
		c.mu.Lock()
		e.val, e.err, e.done = v, err, true
		close(e.ready)
		switch {
		case err != nil:
			c.removeLocked(e)
		case e.doomed:
			c.removeLocked(e)
			c.invalidations++
		default:
			// The size is only known now that the value exists: charge
			// it and shed colder entries if the budget is blown.
			e.bytes = v.SizeBytes()
			c.bytes += e.bytes
			c.evictLocked()
		}
		c.unlock()
	}()
	v, err = build()
	finished = true
	return v, err
}

// invalidate drops every entry built against an older version than
// given (component-wise).
func (c *flightLRU[V]) invalidate(version [2]uint64) {
	c.mu.Lock()
	c.invalidateLocked(version)
	c.unlock()
}

func (c *flightLRU[V]) invalidateLocked(version [2]uint64) {
	if version[0] <= c.version[0] && version[1] <= c.version[1] {
		return
	}
	c.version[0] = max(c.version[0], version[0])
	c.version[1] = max(c.version[1], version[1])
	for _, e := range c.entries {
		if e.version[0] < c.version[0] || e.version[1] < c.version[1] {
			c.dropLocked(e)
		}
	}
}

// dropParent drops every entry whose parent is the given fingerprint.
func (c *flightLRU[V]) dropParent(parent Fingerprint) {
	c.mu.Lock()
	for _, e := range c.entries {
		if e.parent == parent {
			c.dropLocked(e)
		}
	}
	c.unlock()
}

// dropLocked removes a completed entry now and dooms one in flight
// (its builder removes it on completion).
func (c *flightLRU[V]) dropLocked(e *flightEntry[V]) {
	if !e.done {
		e.doomed = true
		return
	}
	c.removeLocked(e)
	c.invalidations++
}

// removeLocked drops an entry from the map, the LRU, and the byte
// accounting (in-flight entries carry zero bytes until they complete),
// and queues the removal notification.
func (c *flightLRU[V]) removeLocked(e *flightEntry[V]) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	if c.onRemove != nil {
		c.removed = append(c.removed, e.key)
	}
}

// evictLocked trims the LRU while it exceeds its entry cap or byte
// budget, skipping entries whose build is still in flight (their
// waiters hold references; evicting a completed value only drops the
// cache's reference — concurrent readers keep working on their copy of
// the pointer). The most-recently-used entry is never evicted: a
// single value bigger than the whole byte budget stays cached alone
// rather than being rebuilt on every request.
func (c *flightLRU[V]) evictLocked() {
	over := func() bool {
		return len(c.entries) > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for elem := c.lru.Back(); elem != nil && elem != c.lru.Front() && over(); {
		prev := elem.Prev()
		if e := elem.Value.(*flightEntry[V]); e.done {
			c.removeLocked(e)
			c.evictions++
		}
		elem = prev
	}
}

// setByteBudget replaces the byte budget (0 = unlimited) and evicts
// down to it immediately.
func (c *flightLRU[V]) setByteBudget(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	c.unlock()
}

// peek returns key's value if its build has completed and it is still
// cached, without touching the LRU order or the counters.
func (c *flightLRU[V]) peek(key Fingerprint) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, found := c.entries[key]; found && e.done {
		return e.val, true
	}
	return v, false
}

// lruStats is a point-in-time snapshot of one flightLRU's counters.
type lruStats struct {
	Hits, Misses, Evictions, Invalidations uint64
	Entries                                int
	BytesCached                            int64
}

// stats snapshots the counters and the byte budget, calling visit (if
// non-nil) under the lock for every completed value — failed builds
// leave the map as they complete, so each of them succeeded.
func (c *flightLRU[V]) stats(visit func(V)) (s lruStats, byteBudget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if visit != nil {
		for _, e := range c.entries {
			if e.done {
				visit(e.val)
			}
		}
	}
	return lruStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		BytesCached:   c.bytes,
	}, c.maxBytes
}
