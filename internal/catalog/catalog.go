// Package catalog holds table, column, and index metadata together with
// the per-column statistics the cost model consumes. It is the "database
// and system state" the paper cites as one of the interacting factors
// that steer the optimizer's choice of plan.
package catalog

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/data"
)

// ColumnStats summarizes a column for cardinality estimation.
type ColumnStats struct {
	NDV       int64      // number of distinct values
	Min, Max  data.Value // value bounds (NULL when unknown)
	NullCount int64

	// HistBounds are the upper bounds of an equi-depth histogram over
	// the non-null values (each bucket holds ~1/len of the rows; the
	// last bound is the maximum). Empty when not collected. The range
	// selectivity estimator prefers these over min/max interpolation,
	// which matters for skewed columns.
	HistBounds []data.Value
}

// HistFractionBelow estimates the fraction of rows with value < v from
// the equi-depth histogram, with linear interpolation inside the
// straddled bucket via the numeric projection fn. ok is false when no
// histogram is available.
func (s *ColumnStats) HistFractionBelow(v data.Value, fn func(data.Value) float64) (float64, bool) {
	b := len(s.HistBounds)
	if b < 2 {
		return 0, false
	}
	// Count buckets entirely below v.
	j := 0
	for j < b {
		if c, err := data.Compare(s.HistBounds[j], v); err != nil {
			return 0, false
		} else if c >= 0 {
			break
		}
		j++
	}
	if j >= b {
		return 1, true
	}
	// Interpolate within bucket j.
	lo := s.Min
	if j > 0 {
		lo = s.HistBounds[j-1]
	}
	loF, hiF, vF := fn(lo), fn(s.HistBounds[j]), fn(v)
	within := 0.5
	if hiF > loF {
		within = (vF - loF) / (hiF - loF)
		if within < 0 {
			within = 0
		}
		if within > 1 {
			within = 1
		}
	}
	return (float64(j) + within) / float64(b), true
}

// Column describes one attribute of a table.
type Column struct {
	Name  string
	Kind  data.Kind
	Stats ColumnStats
}

// Index describes a (possibly multi-column) ordered index. Scanning an
// index delivers rows sorted by its key columns, which is how index scans
// advertise a sort order to the optimizer (operator "SortedIDXScan" in the
// paper's Figure 2).
type Index struct {
	Name    string
	KeyCols []int // positions into Table.Columns
	Unique  bool
}

// Table describes a stored relation.
type Table struct {
	Name        string
	Columns     []Column
	Indexes     []Index
	RowCount    int64
	AvgRowBytes int // used to derive page counts for the I/O cost model
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Pages returns the number of storage pages the table occupies under the
// model's page size. Always at least 1 so empty tables still cost an I/O.
func (t *Table) Pages(pageBytes int) float64 {
	if pageBytes <= 0 {
		pageBytes = 8192
	}
	rowBytes := t.AvgRowBytes
	if rowBytes <= 0 {
		rowBytes = 64
	}
	pages := float64(t.RowCount) * float64(rowBytes) / float64(pageBytes)
	if pages < 1 {
		return 1
	}
	return pages
}

// nextCatalogID hands every Catalog a process-unique identity so caches
// keyed by query fingerprint can distinguish spaces built against
// different catalogs (two databases may share SQL text and versions).
var nextCatalogID atomic.Uint64

// Catalog is a named collection of tables. Iteration order is the order
// of registration so that everything downstream is deterministic.
type Catalog struct {
	byName map[string]*Table
	order  []string

	id      uint64
	version atomic.Uint64

	// The combined version above moves on every change; these two split
	// it by what the change can invalidate. Schema changes (tables,
	// columns, indexes) reshape the optimizer's search space itself;
	// statistics refreshes only move cost estimates around inside an
	// unchanged space. Structure caches key on schemaVersion, cost
	// overlays on statsVersion.
	schemaVersion atomic.Uint64
	statsVersion  atomic.Uint64
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{byName: make(map[string]*Table), id: nextCatalogID.Add(1)}
}

// ID returns the catalog's process-unique identity.
func (c *Catalog) ID() uint64 { return c.id }

// Version returns the catalog's combined metadata/statistics version.
// It starts at zero and only moves forward: every schema change and
// every statistics refresh advances it. Callers that can distinguish
// what a change invalidates use SchemaVersion and StatsVersion instead.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// SchemaVersion counts structural changes — tables, columns, and
// indexes added or altered. A schema bump invalidates the optimizer's
// search-space structures (the memo shape itself may change).
func (c *Catalog) SchemaVersion() uint64 { return c.schemaVersion.Load() }

// StatsVersion counts statistics refreshes. A stats bump leaves the
// search-space structure valid and only invalidates cost overlays
// (cardinalities, operator costs, the optimal rank).
func (c *Catalog) StatsVersion() uint64 { return c.statsVersion.Load() }

// BumpStats advances the statistics version (and the combined version),
// signaling that per-column statistics changed out from under
// previously costed plans. storage.ComputeStats calls it after every
// refresh.
func (c *Catalog) BumpStats() uint64 {
	c.statsVersion.Add(1)
	return c.version.Add(1)
}

// BumpSchema advances the schema version (and the combined version),
// signaling a structural change that invalidates counted plan spaces.
// Add calls it for every registered table.
func (c *Catalog) BumpSchema() uint64 {
	c.schemaVersion.Add(1)
	return c.version.Add(1)
}

// Add registers a table. It returns an error on duplicate names or
// malformed index definitions rather than panicking, so schema bugs in
// callers surface as errors.
func (c *Catalog) Add(t *Table) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("catalog: table must have a name")
	}
	if _, dup := c.byName[t.Name]; dup {
		return fmt.Errorf("catalog: duplicate table %q", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		if seen[col.Name] {
			return fmt.Errorf("catalog: table %q has duplicate column %q", t.Name, col.Name)
		}
		seen[col.Name] = true
	}
	for _, idx := range t.Indexes {
		if len(idx.KeyCols) == 0 {
			return fmt.Errorf("catalog: index %q on %q has no key columns", idx.Name, t.Name)
		}
		for _, kc := range idx.KeyCols {
			if kc < 0 || kc >= len(t.Columns) {
				return fmt.Errorf("catalog: index %q on %q references column %d out of range", idx.Name, t.Name, kc)
			}
		}
	}
	c.byName[t.Name] = t
	c.order = append(c.order, t.Name)
	c.BumpSchema()
	return nil
}

// MustAdd is Add for statically-known schemas (TPC-H, tests).
func (c *Catalog) MustAdd(t *Table) {
	if err := c.Add(t); err != nil {
		panic(err)
	}
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	t, ok := c.byName[name]
	return t, ok
}

// Tables returns all tables in registration order.
func (c *Catalog) Tables() []*Table {
	out := make([]*Table, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.byName[n])
	}
	return out
}

// Names returns the sorted table names (for display).
func (c *Catalog) Names() []string {
	out := append([]string(nil), c.order...)
	sort.Strings(out)
	return out
}
