package engine

import (
	"math/big"

	"repro/internal/opt"
)

// DefaultOverlayCapacity is the entry cap of the overlay cache an
// Engine creates when none is injected. Overlays are small (two float64
// tables plus the winner memo) and cheap to rebuild (~ms), so the cap
// is generous relative to the structure cache.
const DefaultOverlayCapacity = 256

// CostOverlay is the cheap, cost-bearing layer over a cached
// StructureSpace: the per-group cardinalities and per-operator local
// costs (opt.Costing wraps cost.Tables), the estimator/model bound to
// them, the optimal plan, and its rank in the counted space. One
// overlay is immutable after build and safe for any number of
// concurrent readers; it is what the OverlayCache stores.
//
// A structure hit with a stale overlay re-costs in place: the memo,
// counts, and unrank tables are reused and only this layer is rebuilt —
// the operation BenchmarkRecost measures against a cold Prepare.
type CostOverlay struct {
	Fingerprint Fingerprint
	Structure   *StructureSpace
	Costing     *opt.Costing

	// Epoch is the feedback epoch whose correction view this overlay
	// was costed with. Executions tag their recorded observations with
	// it, so ratios measured against this overlay's estimates are never
	// folded on top of corrections from a newer epoch.
	Epoch uint64

	// OptimalRank is the plan number of Costing.Best in the structure's
	// counted space — precomputed because every /prepare, /explain, and
	// re-optimized /execute asks for it. Callers must not mutate it.
	OptimalRank *big.Int
}

// OverlayCacheStats is a point-in-time snapshot of the overlay cache's
// counters.
type OverlayCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"` // stats-version or feedback-epoch bumps
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	BytesCached   int64  `json:"bytes_cached"`
}

// OverlayCache is a concurrency-safe LRU of cost overlays keyed by
// overlay fingerprint: one flightLRU, like the SpaceCache. Re-costing
// is milliseconds, entries are KBs, and the common case is a handful of
// (cost params, stats version, feedback epoch) combinations per
// structure, so an entry cap suffices without a byte budget. Entries
// older than the newest observed statistics version or feedback epoch
// are dropped promptly — their fingerprints embed both, so they could
// never be returned; invalidation exists to release memory, exactly
// like the structure cache's catalog invalidation.
type OverlayCache struct {
	lru *flightLRU[*CostOverlay]
}

// NewOverlayCache returns a cache holding at most capacity overlays
// (clamped to at least one).
func NewOverlayCache(capacity int) *OverlayCache {
	return &OverlayCache{lru: newFlightLRU[*CostOverlay]("overlay", max(capacity, 1), 0, nil)}
}

// Stats snapshots the counters.
func (c *OverlayCache) Stats() OverlayCacheStats {
	s, _ := c.lru.stats(nil)
	return OverlayCacheStats{
		Hits:          s.Hits,
		Misses:        s.Misses,
		Evictions:     s.Evictions,
		Invalidations: s.Invalidations,
		Entries:       s.Entries,
		Capacity:      c.lru.cap,
		BytesCached:   s.BytesCached,
	}
}

// Invalidate drops every overlay costed against an older statistics
// version or feedback epoch than given.
func (c *OverlayCache) Invalidate(statsVersion, epoch uint64) {
	c.lru.invalidate([2]uint64{statsVersion, epoch})
}

// DropStructure removes every completed overlay costed over the given
// structure fingerprint. The engine registers it as a SpaceCache
// removal listener, so overlays never outlive their structure — the
// structure byte budget stays a real memory bound. In-flight builds
// are doomed instead of removed: their waiters still get the overlay,
// but the entry is dropped on completion rather than cached.
func (c *OverlayCache) DropStructure(structure Fingerprint) {
	c.lru.dropParent(structure)
}

// GetOrBuild returns the overlay for fp (costing the structure
// identified by structure), building it on a miss with singleflight
// semantics: exactly one caller runs build per miss, every other
// concurrent caller for the same fingerprint blocks until that build
// finishes and shares the result. A failed build is not cached.
func (c *OverlayCache) GetOrBuild(fp, structure Fingerprint, statsVersion, epoch uint64, build func() (*CostOverlay, error)) (*CostOverlay, bool, error) {
	return c.lru.getOrBuild(fp, structure, [2]uint64{statsVersion, epoch}, build)
}
