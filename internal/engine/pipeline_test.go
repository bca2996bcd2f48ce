package engine_test

import (
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// freshTinyTPCH builds a private database for tests that mutate catalog
// state (the shared tinyTPCH fixture must stay untouched).
func freshTinyTPCH(t *testing.T) *storage.DB {
	t.Helper()
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPreparedSharesCachedSpace: preparing the same query twice returns
// two Prepared statements over one shared PlanSpace, and textual noise
// (whitespace, keyword case) or an OPTION (USEPLAN n) suffix does not
// split the cache entry.
func TestPreparedSharesCachedSpace(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	p1, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Cached {
		t.Error("first Prepare reported a cache hit")
	}
	p2, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached {
		t.Error("second Prepare missed the cache")
	}
	if p1.Space != p2.Space || p1.Shared != p2.Shared {
		t.Error("repeated Prepare did not share the counted space")
	}
	if p1.Fingerprint() != p2.Fingerprint() {
		t.Error("fingerprints differ for identical SQL")
	}

	// Same query, different whitespace and keyword case.
	noisy := "select  n_name,   count(l_orderkey) AS items\n FROM customer, orders, lineitem, nation " +
		"where c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_nationkey = n_nationkey " +
		"GROUP  BY n_name order by n_name"
	p3, err := e.Prepare(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !p3.Cached || p3.Space != p1.Space {
		t.Error("whitespace/case variant built a second space")
	}

	// USEPLAN selects within the space without changing it.
	p4, err := e.Prepare(smallJoin + " OPTION (USEPLAN 7)")
	if err != nil {
		t.Fatal(err)
	}
	if !p4.Cached || p4.Space != p1.Space {
		t.Error("USEPLAN variant built a second space")
	}
	if p4.UsePlan == nil || p4.UsePlan.Int64() != 7 {
		t.Errorf("UsePlan = %v, want 7", p4.UsePlan)
	}
}

// TestConcurrentPrepareSingleCount: many goroutines preparing one query
// against a cold cache trigger exactly one bind+optimize+count.
func TestConcurrentPrepareSingleCount(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	const goroutines = 16
	prepared := make([]*engine.Prepared, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := e.Prepare(smallJoin)
			if err != nil {
				t.Error(err)
				return
			}
			prepared[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if prepared[i] == nil || prepared[i].Space != prepared[0].Space {
			t.Fatalf("goroutine %d does not share the space", i)
		}
	}
	st := e.Cache().Stats()
	if st.Misses != 1 {
		t.Errorf("%d misses for one fingerprint, want 1 (duplicate counting)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Errorf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

// TestCatalogBumpInvalidatesTiers: the two cache tiers split what a
// catalog change invalidates. A statistics bump (BumpStats — what
// storage.ComputeStats issues) leaves the counted structure cached and
// only forces a re-cost; a schema bump rebuilds the structure itself.
func TestCatalogBumpInvalidatesTiers(t *testing.T) {
	// Private database: bumping the shared test fixture's catalog would
	// leak invalidations into other tests.
	db := freshTinyTPCH(t)
	e := engine.New(db)
	p1, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}

	// Statistics refresh: structure survives, overlay is re-costed.
	db.Catalog().BumpStats()
	p2, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached || p1.Space != p2.Space || p1.Shared != p2.Shared {
		t.Error("stats bump rebuilt the structure; it should only re-cost")
	}
	if p2.OverlayCached || p1.Overlay == p2.Overlay {
		t.Error("stats bump served the stale cost overlay")
	}
	if p1.OverlayFingerprint() == p2.OverlayFingerprint() {
		t.Error("overlay fingerprint ignores the statistics version")
	}
	if st := e.Overlays().Stats(); st.Invalidations != 1 {
		t.Errorf("overlay invalidations = %d, want 1", st.Invalidations)
	}

	// Schema change: the structure itself is stale.
	db.Catalog().BumpSchema()
	p3, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Cached {
		t.Error("Prepare after schema bump served the stale structure")
	}
	if p2.Space == p3.Space {
		t.Error("space not rebuilt after schema bump")
	}
	if p2.Fingerprint() == p3.Fingerprint() {
		t.Error("structure fingerprint ignores the schema version")
	}
	if st := e.Cache().Stats(); st.Invalidations != 1 {
		t.Errorf("structure invalidations = %d, want 1", st.Invalidations)
	}
	// The counts agree — the space is equivalent, just recounted.
	if p1.Count().Cmp(p3.Count()) != 0 {
		t.Errorf("recounted space has %s plans, was %s", p3.Count(), p1.Count())
	}
}

// TestStructureEvictionDropsOverlays: a cost overlay pins the memo of
// the structure it costs, so when the structure cache evicts a
// structure its overlays must go too — otherwise the structure byte
// budget would not bound resident memory.
func TestStructureEvictionDropsOverlays(t *testing.T) {
	// Single-entry, single-shard structure cache: the second query
	// evicts the first query's structure.
	e := engine.New(tinyTPCH(t), engine.WithCache(engine.NewSpaceCacheSharded(1, 1)))
	if _, err := e.Prepare(smallJoin); err != nil {
		t.Fatal(err)
	}
	if st := e.Overlays().Stats(); st.Entries != 1 {
		t.Fatalf("overlay entries after first Prepare = %d, want 1", st.Entries)
	}
	if _, err := e.Prepare("SELECT r_name FROM region ORDER BY r_name"); err != nil {
		t.Fatal(err)
	}
	st := e.Overlays().Stats()
	if st.Entries != 1 {
		t.Errorf("overlay entries after structure eviction = %d, want 1 (evicted structure's overlay dropped)", st.Entries)
	}
	if st.Invalidations == 0 {
		t.Error("structure eviction did not drop its overlay")
	}
}

// TestSessionConfigSplitsFingerprint: sessions with different rule
// configurations get distinct spaces from one shared cache.
func TestSessionConfigSplitsFingerprint(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	base, err := e.Session().Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := e.Session(engine.WithCartesian(true)).Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == cross.Fingerprint() {
		t.Error("Cartesian toggle did not change the fingerprint")
	}
	if base.Count().Cmp(cross.Count()) >= 0 {
		t.Errorf("cross space (%s plans) not larger than base (%s)", cross.Count(), base.Count())
	}
	// Same configs hit their respective entries.
	again, err := e.Session(engine.WithCartesian(true)).Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Space != cross.Space {
		t.Error("second Cartesian session missed the cache")
	}
}

// TestSharedCacheAcrossEngines: two engines over one database can share
// counting work through an injected cache.
func TestSharedCacheAcrossEngines(t *testing.T) {
	db := tinyTPCH(t)
	shared := engine.NewSpaceCache(8)
	e1 := engine.New(db, engine.WithCache(shared))
	e2 := engine.New(db, engine.WithCache(shared))
	p1, err := e1.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e2.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached || p1.Space != p2.Space {
		t.Error("engines with a shared cache counted the space twice")
	}
}
