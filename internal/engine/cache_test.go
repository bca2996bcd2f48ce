package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sql"
	"repro/internal/tpch"
)

func fp(b byte) Fingerprint {
	var f Fingerprint
	f[0] = b
	return f
}

// tierCache adapts one cache tier to the contract both tiers share
// through flightLRU, so each contract test runs over both. get runs f
// inside the build and, unless f fails, returns a fresh value; doom
// invalidates (structure tier) or drops (overlay tier) every entry
// built so far.
type tierCache struct {
	get   func(key byte, f func() error) (val any, cached bool, err error)
	stats func() lruStats
	doom  func()
}

var cacheTiers = []struct {
	name string
	open func(capacity int) tierCache
}{
	{"structure", func(capacity int) tierCache {
		c := NewSpaceCache(capacity)
		return tierCache{
			get: func(key byte, f func() error) (any, bool, error) {
				v, cached, err := c.GetOrBuild(fp(key), 1, func() (*StructureSpace, error) {
					if err := f(); err != nil {
						return nil, err
					}
					return &StructureSpace{}, nil
				})
				return v, cached, err
			},
			stats: func() lruStats { s, _ := c.lru.stats(nil); return s },
			doom:  func() { c.Invalidate(2) },
		}
	}},
	{"overlay", func(capacity int) tierCache {
		c := NewOverlayCache(capacity)
		return tierCache{
			get: func(key byte, f func() error) (any, bool, error) {
				v, cached, err := c.GetOrBuild(fp(key), fp(0), 1, 1, func() (*CostOverlay, error) {
					if err := f(); err != nil {
						return nil, err
					}
					return &CostOverlay{}, nil
				})
				return v, cached, err
			},
			stats: func() lruStats { s, _ := c.lru.stats(nil); return s },
			doom:  func() { c.DropStructure(fp(0)) },
		}
	}},
}

// TestCacheSingleflight: concurrent GetOrBuild calls for one fingerprint
// run the builder exactly once and share the resulting value.
func TestCacheSingleflight(t *testing.T) {
	for _, tier := range cacheTiers {
		t.Run(tier.name, func(t *testing.T) {
			c := tier.open(4)
			var builds atomic.Int64
			const goroutines = 32

			var wg sync.WaitGroup
			vals := make([]any, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, _, err := c.get(1, func() error {
						builds.Add(1)
						time.Sleep(20 * time.Millisecond) // widen the race window
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					vals[i] = v
				}(i)
			}
			wg.Wait()

			if n := builds.Load(); n != 1 {
				t.Fatalf("builder ran %d times for one fingerprint, want 1", n)
			}
			for i, v := range vals {
				if v != vals[0] {
					t.Fatalf("goroutine %d got a different value", i)
				}
			}
			st := c.stats()
			if st.Misses != 1 || st.Hits != goroutines-1 {
				t.Errorf("stats = %+v, want 1 miss and %d hits", st, goroutines-1)
			}
		})
	}
}

// TestCacheLRUEviction: beyond the capacity the least-recently-used
// entry is dropped; touching an entry protects it.
func TestCacheLRUEviction(t *testing.T) {
	for _, tier := range cacheTiers {
		t.Run(tier.name, func(t *testing.T) {
			c := tier.open(2)
			get := func(b byte) bool {
				t.Helper()
				_, cached, err := c.get(b, func() error { return nil })
				if err != nil {
					t.Fatal(err)
				}
				return cached
			}

			get(1)
			get(2)
			get(3) // evicts 1
			if st := c.stats(); st.Entries != 2 || st.Evictions != 1 {
				t.Fatalf("after third insert: %+v, want 2 entries, 1 eviction", st)
			}
			if get(1) {
				t.Error("fingerprint 1 should have been evicted")
			}
			// Reinserting 1 evicted 2 (the LRU of [3, 2]); 3 must survive.
			if !get(3) {
				t.Error("fingerprint 3 should still be resident")
			}
			// Touch 1, insert 4: the untouched 3 goes, 1 stays.
			get(1)
			get(4)
			if !get(1) {
				t.Error("recently used fingerprint 1 was evicted")
			}
			// A build in flight is never evicted, even as the LRU entry.
			started, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				c.get(5, func() error {
					close(started)
					<-release
					return nil
				})
			}()
			<-started
			get(6)
			get(7) // 5 is the LRU entry but still in flight: 6 goes
			close(release)
			<-done
			if !get(5) {
				t.Error("in-flight fingerprint 5 was evicted")
			}
		})
	}
}

// TestCacheErrorNotCached: a failed build is reported to the caller and
// retried on the next request rather than cached.
func TestCacheErrorNotCached(t *testing.T) {
	for _, tier := range cacheTiers {
		t.Run(tier.name, func(t *testing.T) {
			c := tier.open(2)
			boom := errors.New("bind failed")
			var builds int
			_, _, err := c.get(9, func() error {
				builds++
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if st := c.stats(); st.Entries != 0 {
				t.Fatalf("failed build left %d entries", st.Entries)
			}
			v, _, err := c.get(9, func() error {
				builds++
				return nil
			})
			if err != nil || v == nil {
				t.Fatalf("retry failed: %v", err)
			}
			if builds != 2 {
				t.Errorf("builds = %d, want 2 (error must not be cached)", builds)
			}
		})
	}
}

// TestCacheInvalidation: observing a newer catalog version — through
// GetOrBuild or Invalidate — drops every space built against an older
// one and releases its bytes.
func TestCacheInvalidation(t *testing.T) {
	c := NewSpaceCache(8)
	build := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	if _, _, err := c.GetOrBuild(fp(1), 1, build); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild(fp(2), 1, build); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild(fp(3), 2, build); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
	if st.Entries != 1 || st.BytesCached != (&StructureSpace{}).SizeBytes() {
		t.Errorf("entries = %d, bytes = %d, want only the version-2 space", st.Entries, st.BytesCached)
	}
	// Explicit Invalidate behaves the same.
	c.Invalidate(3)
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 3 {
		t.Errorf("after Invalidate(3): %+v", st)
	}
	// Stale versions are a no-op.
	c.Invalidate(1)
	if st := c.Stats(); st.Invalidations != 3 {
		t.Errorf("stale Invalidate bumped counters: %+v", st)
	}
}

// TestCachePanicDoesNotWedge: a panicking build must fail the entry —
// closing ready for any waiters and freeing the slot — instead of
// leaving every future caller of the fingerprint blocked forever.
func TestCachePanicDoesNotWedge(t *testing.T) {
	for _, tier := range cacheTiers {
		t.Run(tier.name, func(t *testing.T) {
			c := tier.open(2)
			release := make(chan struct{})
			waiterErr := make(chan error, 1)
			go func() {
				// Arrive once the panicking build is in flight. Almost
				// always this call blocks on the in-flight entry and
				// must receive its error; if scheduling delays it past
				// the cleanup it builds fresh and succeeds — either way
				// it must return promptly rather than wedge.
				<-release
				_, _, err := c.get(5, func() error { return nil })
				waiterErr <- err
			}()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("panic did not propagate to the building caller")
					}
				}()
				c.get(5, func() error {
					close(release) // the waiter may now pile on
					time.Sleep(50 * time.Millisecond)
					panic("bind exploded")
				})
			}()
			select {
			case <-waiterErr: // returned — with the build error or a fresh build
			case <-time.After(5 * time.Second):
				t.Fatal("waiter wedged on a panicked build")
			}
			// The slot is free: the next call rebuilds successfully.
			v, _, err := c.get(5, func() error { return nil })
			if err != nil || v == nil {
				t.Fatalf("rebuild after panic failed: %v", err)
			}
			if st := c.stats(); st.Entries != 1 {
				t.Errorf("entries = %d after recovery, want 1", st.Entries)
			}
		})
	}
}

// TestCacheDoomedBuildNotCached: a build still in flight when its entry
// is invalidated (structure tier: a schema-version bump) or dropped
// (overlay tier: its structure left the cache) is doomed — its waiters
// still receive the value, but it is not cached, so it cannot stay
// resident where no caller can ask for it.
func TestCacheDoomedBuildNotCached(t *testing.T) {
	for _, tier := range cacheTiers {
		t.Run(tier.name, func(t *testing.T) {
			c := tier.open(4)
			started, release := make(chan struct{}), make(chan struct{})
			vals := make(chan any, 2)
			get := func(f func() error) {
				v, _, err := c.get(1, f)
				if err != nil {
					t.Error(err)
				}
				vals <- v
			}
			go get(func() error {
				close(started)
				<-release
				return nil
			})
			<-started
			go get(func() error {
				t.Error("a second build ran for an in-flight fingerprint")
				return nil
			})
			for c.stats().Hits == 0 { // the waiter has joined the build
				time.Sleep(time.Millisecond)
			}
			c.doom()
			close(release)
			a, b := <-vals, <-vals
			if a == nil || a != b {
				t.Fatalf("waiters got %v and %v, want one shared value", a, b)
			}
			if st := c.stats(); st.Entries != 0 || st.BytesCached != 0 || st.Invalidations != 1 {
				t.Errorf("doomed build was cached: %+v, want 0 entries, 0 bytes, 1 invalidation", st)
			}
		})
	}
}

// TestCacheByteBudgetEviction: eviction is driven by estimated space
// bytes, not just entry count. Entry sizes are controlled through the
// canonical SQL length (SizeBytes = fixed overhead + len(Canonical) for
// a space-less StructureSpace). The budget and the LRU order are global:
// keys that differ in their first byte compete for the same budget.
func TestCacheByteBudgetEviction(t *testing.T) {
	c := NewSpaceCache(100)
	entry := func(b byte, canonLen int) (*StructureSpace, bool) {
		t.Helper()
		ps, cached, err := c.GetOrBuild(fp(b), 1, func() (*StructureSpace, error) {
			return &StructureSpace{Canonical: string(make([]byte, canonLen))}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ps, cached
	}
	one := (&StructureSpace{}).SizeBytes() // size of a zero-canonical entry
	c.SetByteBudget(2*one + one/2)         // room for two, not three

	entry(1, 0)
	entry(2, 0)
	if st := c.Stats(); st.Entries != 2 || st.BytesCached != 2*one || st.Evictions != 0 {
		t.Fatalf("two entries under budget: %+v", st)
	}
	entry(3, 0) // blows the budget: LRU (1) goes
	st := c.Stats()
	if st.Entries != 2 || st.BytesCached != 2*one || st.Evictions != 1 {
		t.Fatalf("after byte eviction: %+v", st)
	}
	if _, cached := entry(1, 0); cached {
		t.Error("fingerprint 1 should have been byte-evicted")
	}

	// A single entry bigger than the whole budget stays resident (the
	// MRU entry is never evicted), shedding everything else.
	entry(4, int(3*one))
	st = c.Stats()
	if st.Entries != 1 {
		t.Fatalf("oversized entry handling: %+v", st)
	}
	if _, cached := entry(4, int(3*one)); !cached {
		t.Error("oversized MRU entry was evicted; it should stay cached alone")
	}

	// Tightening the budget evicts immediately; 0 disables byte-based
	// eviction entirely.
	entry(5, 0)
	c.SetByteBudget(0)
	before := c.Stats()
	entry(6, 0)
	entry(7, 0)
	if st := c.Stats(); st.Entries != before.Entries+2 || st.Evictions != before.Evictions || st.ByteBudget != 0 {
		t.Errorf("byte eviction ran with budget disabled: %+v -> %+v", before, st)
	}
}

// TestCacheCapacityIsGlobal: the entry cap is one bound over the whole
// cache whatever the host's CPU count, so two keys fit in a cache of 64
// even when GOMAXPROCS is 64.
func TestCacheCapacityIsGlobal(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(64))
	c := NewSpaceCache(64)
	build := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	for _, b := range []byte{1, 65, 1, 65} {
		if _, _, err := c.GetOrBuild(fp(b), 1, build); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Hits != 2 || st.Evictions != 0 || st.Capacity != 64 {
		t.Errorf("stats = %+v, want 2 entries, 2 hits, no eviction, capacity 64", st)
	}
}

// TestCacheBytesAccounting: invalidation and failed builds release
// their bytes; in-flight entries carry none.
func TestCacheBytesAccounting(t *testing.T) {
	c := NewSpaceCache(8)
	for b := byte(1); b <= 3; b++ {
		c.GetOrBuild(fp(b), 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	if st := c.Stats(); st.BytesCached <= 0 {
		t.Fatalf("no bytes accounted: %+v", st)
	}
	c.Invalidate(2)
	if st := c.Stats(); st.BytesCached != 0 {
		t.Errorf("bytes not released on invalidation: %+v", st)
	}
	c.GetOrBuild(fp(9), 2, func() (*StructureSpace, error) { return nil, errors.New("boom") })
	if st := c.Stats(); st.BytesCached != 0 {
		t.Errorf("failed build left bytes behind: %+v", st)
	}
}

// TestCacheSingleflightManyKeys: concurrent misses for many
// fingerprints at once still build each space exactly once.
func TestCacheSingleflightManyKeys(t *testing.T) {
	c := NewSpaceCache(64)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		f := fp(byte(i))
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := c.GetOrBuild(f, 1, func() (*StructureSpace, error) {
					builds.Add(1)
					time.Sleep(5 * time.Millisecond)
					return &StructureSpace{}, nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if n := builds.Load(); n != 16 {
		t.Fatalf("builders ran %d times for 16 fingerprints", n)
	}
}

// TestCacheShardedInvalidation: with many fingerprints resident,
// explicit Invalidate empties the whole cache, and a newer version
// observed through one GetOrBuild releases every stale space and its
// bytes, not only the one it asked for. (The name dates from the
// sharded cache, where this was a cross-shard broadcast.)
func TestCacheShardedInvalidation(t *testing.T) {
	c := NewSpaceCache(64)
	build := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	for b := byte(0); b < 24; b++ {
		c.GetOrBuild(fp(b), 1, build)
	}
	c.Invalidate(2)
	if st := c.Stats(); st.Entries != 0 || st.BytesCached != 0 || st.Invalidations != 24 {
		t.Fatalf("explicit Invalidate: %+v, want 0 entries, 0 bytes, 24 invalidations", st)
	}
	for b := byte(0); b < 24; b++ {
		c.GetOrBuild(fp(b), 2, build)
	}
	c.GetOrBuild(fp(0), 3, build)
	st := c.Stats()
	if st.Entries != 1 || st.BytesCached != (&StructureSpace{}).SizeBytes() {
		t.Fatalf("version bump via GetOrBuild left stale spaces resident: %+v", st)
	}
	if st.Invalidations != 48 {
		t.Fatalf("invalidations = %d, want 48", st.Invalidations)
	}
}

// TestCacheShardedByteBudget: under a tight byte budget many keys keep
// the cache within it by evicting, and SetByteBudget(0) stops byte
// eviction for every key. (The name dates from the sharded cache,
// where the budget was split across shards.)
func TestCacheShardedByteBudget(t *testing.T) {
	c := NewSpaceCache(100)
	one := (&StructureSpace{}).SizeBytes()
	c.SetByteBudget(4*one + one/2) // room for four entries
	build := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	for b := byte(0); b < 40; b++ {
		c.GetOrBuild(fp(b), 1, build)
	}
	st := c.Stats()
	if st.Entries != 4 || st.BytesCached != 4*one || st.Evictions != 36 {
		t.Fatalf("40 keys under a four-entry budget: %+v, want 4 entries and 36 evictions", st)
	}
	c.SetByteBudget(0)
	before := c.Stats().Evictions
	for b := byte(0); b < 8; b++ {
		c.GetOrBuild(fp(b), 1, build)
	}
	if after := c.Stats().Evictions; after != before {
		t.Fatalf("byte eviction ran with budget disabled: %d -> %d", before, after)
	}
}

// TestPrepareStructureLeavesBetweenStages: a structure that leaves the
// cache after its build returns but before Prepare inserts the overlay
// (here: doomed by a schema bump while Prepare waits on the build) must
// not leave that overlay cached over a memo no cache accounts for.
func TestPrepareStructureLeavesBetweenStages(t *testing.T) {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	sess := e.Session()
	const text = "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey"
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	canonical, cat := canonicalSQL(stmt), db.Catalog()
	v := cat.SchemaVersion()
	sfp := structureFingerprintOf(canonical, sess.opts.Rules, cat.ID(), v)

	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := e.cache.GetOrBuild(sfp, v, func() (*StructureSpace, error) {
			close(started)
			<-release
			return sess.buildStructure(canonical, stmt, sfp)
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err := sess.Prepare(text)
		errs <- err
	}()
	for e.cache.Stats().Hits != 1 { // Prepare has joined the build
		time.Sleep(time.Millisecond)
	}
	e.cache.Invalidate(v + 1)
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := e.overlays.Stats(); st.Entries != 0 || st.BytesCached != 0 {
		t.Errorf("overlay over a dropped structure stayed cached: %+v", st)
	}
}
