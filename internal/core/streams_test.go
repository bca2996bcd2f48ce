package core_test

import (
	"hash/fnv"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// The seeded rank streams and optimal-plan ranks below were recorded
// from the TPC-H database at sf=0.001, seed 42. They pin the sampler's
// draw rule and the rank layout of every space across changes to the
// arithmetic tiers: a rewrite that reorders candidates, changes the
// rejection rule, or consumes the generator differently fails here even
// when it is internally consistent.
const (
	pinnedSeed  = 77
	pinnedDraws = 1024
)

var pinnedStreams = map[string]uint64{
	"Q3":       0xb23a93a9e07523b0,
	"Q5":       0x6827450d9010772d,
	"Q6":       0xb7f5b4de3e9f350c,
	"Q7":       0xabd613a3f7f9f403,
	"Q8":       0x4aca5bb644650176,
	"Q9":       0xc7a1fccb6991394c,
	"Q10":      0x61d02117aa411082,
	"Q8+cross": 0xbfbba1b1f369bdaa,
}

var pinnedOptimalRanks = map[string]string{
	"Q3":       "32952",
	"Q5":       "34167618591153",
	"Q6":       "4",
	"Q7":       "17402621395752",
	"Q8":       "29552462553474576",
	"Q9":       "894276530276",
	"Q10":      "1578",
	"Q8+cross": "2509532728999417105196",
}

var (
	tpchOnce sync.Once
	tpchDB   *storage.DB
	tpchErr  error
)

// tpchPrepared prepares a named TPC-H query over the shared sf=0.001
// database.
func tpchPrepared(tb testing.TB, query string, cross bool) *engine.Prepared {
	tb.Helper()
	tpchOnce.Do(func() { tpchDB, tpchErr = tpch.NewDB(0.001, 42) })
	if tpchErr != nil {
		tb.Fatal(tpchErr)
	}
	sqlText, ok := tpch.Query(query)
	if !ok {
		tb.Fatalf("unknown query %s", query)
	}
	p, err := engine.New(tpchDB, engine.WithCartesian(cross)).Prepare(sqlText)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// streamHash draws pinnedDraws ranks from a seed-77 sampler on the
// space's production tier and hashes their decimal renderings.
func streamHash(t *testing.T, s *core.Space) uint64 {
	t.Helper()
	smp, err := s.NewSampler(pinnedSeed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var text []byte
	var wa core.WideArena
	buf := make([]uint64, s.RankLimbs())
	for i := 0; i < pinnedDraws; i++ {
		text = text[:0]
		switch s.Arithmetic() {
		case "uint64":
			text = strconv.AppendUint(text, smp.NextRank64(), 10)
		case "wide":
			wa.Reset()
			text = core.AppendWideDecimal(text, smp.NextRankInto(buf), &wa)
		default:
			t.Fatalf("unexpected tier %s", s.Arithmetic())
		}
		h.Write(append(text, ','))
	}
	return h.Sum64()
}

// TestPinnedRankStreams checks every TPC-H query (uint64 tier) and
// Q8 with Cartesian products (wide tier) against the recorded stream
// hashes and optimal-plan ranks.
func TestPinnedRankStreams(t *testing.T) {
	type spaceCase struct {
		name, query, tier string
		cross             bool
	}
	var cases []spaceCase
	for _, q := range tpch.QueryNames() {
		cases = append(cases, spaceCase{q, q, "uint64", false})
	}
	cases = append(cases, spaceCase{"Q8+cross", "Q8", "wide", true})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := tpchPrepared(t, c.query, c.cross)
			if got := p.Space.Arithmetic(); got != c.tier {
				t.Fatalf("tier = %s, want %s", got, c.tier)
			}
			if got, want := streamHash(t, p.Space), pinnedStreams[c.name]; got != want {
				t.Errorf("seed-%d rank stream hash = %#x, recorded %#x", pinnedSeed, got, want)
			}
			r, err := p.Space.Rank(p.OptimalPlan())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := r.String(), pinnedOptimalRanks[c.name]; got != want {
				t.Errorf("optimal-plan rank = %s, recorded %s", got, want)
			}
		})
	}
}
