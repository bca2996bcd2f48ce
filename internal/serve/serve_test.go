package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var (
	dbOnce  sync.Once
	dbCache *storage.DB
	dbErr   error
)

func testDB(t testing.TB) *storage.DB {
	t.Helper()
	dbOnce.Do(func() { dbCache, dbErr = tpch.NewDB(0.0004, 42) })
	if dbErr != nil {
		t.Fatal(dbErr)
	}
	return dbCache
}

func newTestServer(t testing.TB) (*Server, *engine.Engine) {
	t.Helper()
	e := engine.New(testDB(t))
	return New(e, WithQueryResolver(tpch.Query)), e
}

// post sends a JSON request and decodes the JSON response into out,
// requiring the given status.
func post(t *testing.T, h http.Handler, path string, body any, wantStatus int, out any) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(blob))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != wantStatus {
		t.Fatalf("POST %s: status %d, want %d; body: %s", path, w.Code, wantStatus, w.Body)
	}
	if out != nil {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", path, w.Body, err)
		}
	}
}

const q6 = "SELECT COUNT(l_orderkey) AS n FROM lineitem WHERE l_quantity < 10"

// TestCountMatchesEngine: the service's counts agree with direct engine
// preparation, for SQL text and for resolver-named queries.
func TestCountMatchesEngine(t *testing.T) {
	srv, e := newTestServer(t)
	h := srv.Handler()

	p, err := e.Prepare(q6)
	if err != nil {
		t.Fatal(err)
	}
	var got SpaceInfo
	post(t, h, "/count", QueryRequest{SQL: q6}, http.StatusOK, &got)
	if got.Count != p.Count().String() {
		t.Errorf("served count %s, engine says %s", got.Count, p.Count())
	}
	if !got.Cached {
		t.Error("count after direct Prepare should hit the shared cache")
	}

	sqlQ5, _ := tpch.Query("Q5")
	pq5, err := e.Prepare(sqlQ5)
	if err != nil {
		t.Fatal(err)
	}
	var named SpaceInfo
	post(t, h, "/count", QueryRequest{Query: "Q5"}, http.StatusOK, &named)
	if named.Count != pq5.Count().String() {
		t.Errorf("named Q5 count %s, engine says %s", named.Count, pq5.Count())
	}
	if named.Arithmetic != "uint64" {
		t.Errorf("Q5 arithmetic = %q, want uint64", named.Arithmetic)
	}
}

// TestPrepareReportsSpaceParameters: /prepare returns the fingerprint,
// optimal plan data, and memo statistics.
func TestPrepareReportsSpaceParameters(t *testing.T) {
	srv, e := newTestServer(t)
	var resp PrepareResponse
	post(t, srv.Handler(), "/prepare", QueryRequest{Query: "Q5"}, http.StatusOK, &resp)
	if len(resp.Fingerprint) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", resp.Fingerprint)
	}
	if resp.OptimalCost <= 0 || resp.Groups <= 0 || resp.PhysicalOps <= 0 {
		t.Errorf("implausible space parameters: %+v", resp)
	}
	sqlQ5, _ := tpch.Query("Q5")
	p, err := e.Prepare(sqlQ5)
	if err != nil {
		t.Fatal(err)
	}
	wantRank, err := p.OptimalRank()
	if err != nil {
		t.Fatal(err)
	}
	if resp.OptimalRank != wantRank.String() {
		t.Errorf("optimal rank %s, engine says %s", resp.OptimalRank, wantRank)
	}
}

// TestUnrankMatchesEngine: served plan trees and scaled costs equal the
// engine's own unranking, in request order.
func TestUnrankMatchesEngine(t *testing.T) {
	srv, e := newTestServer(t)
	sqlQ5, _ := tpch.Query("Q5")
	p, err := e.Prepare(sqlQ5)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []string{"0", "12345", "7"}
	var resp UnrankResponse
	post(t, srv.Handler(), "/unrank", UnrankRequest{QueryRequest: QueryRequest{Query: "Q5"}, Ranks: ranks}, http.StatusOK, &resp)
	if len(resp.Plans) != len(ranks) {
		t.Fatalf("%d plans for %d ranks", len(resp.Plans), len(ranks))
	}
	for i, want := range ranks {
		got := resp.Plans[i]
		if got.Rank != want {
			t.Errorf("plan %d has rank %s, want %s (order must be preserved)", i, got.Rank, want)
		}
		r, _ := new(big.Int).SetString(want, 10)
		pl, err := p.Unrank(r)
		if err != nil {
			t.Fatal(err)
		}
		if got.Tree != pl.String() {
			t.Errorf("plan %s tree differs from engine unrank", want)
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.ScaledCost - sc; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("plan %s scaled cost %g, engine says %g", want, got.ScaledCost, sc)
		}
	}

	// Out-of-range and malformed ranks are client errors.
	post(t, srv.Handler(), "/unrank",
		UnrankRequest{QueryRequest: QueryRequest{Query: "Q5"}, Ranks: []string{p.Count().String()}},
		http.StatusUnprocessableEntity, nil)
	post(t, srv.Handler(), "/unrank",
		UnrankRequest{QueryRequest: QueryRequest{Query: "Q5"}, Ranks: []string{"not-a-number"}},
		http.StatusBadRequest, nil)
}

// TestSampleDeterministicAndConsistent: equal seeds draw equal samples;
// ranks round-trip through /unrank to the same scaled costs.
func TestSampleDeterministicAndConsistent(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	req := SampleRequest{QueryRequest: QueryRequest{Query: "Q9"}, K: 32, Seed: 7}
	var a, b SampleResponse
	post(t, h, "/sample", req, http.StatusOK, &a)
	post(t, h, "/sample", req, http.StatusOK, &b)
	if len(a.Ranks) != 32 || len(a.ScaledCosts) != 32 {
		t.Fatalf("sample sizes: %d ranks, %d costs", len(a.Ranks), len(a.ScaledCosts))
	}
	for i := range a.Ranks {
		if a.Ranks[i] != b.Ranks[i] || a.ScaledCosts[i] != b.ScaledCosts[i] {
			t.Fatalf("draw %d differs across equal seeds", i)
		}
	}
	if a.Summary.Min < 1 {
		t.Errorf("scaled minimum %g below the optimum", a.Summary.Min)
	}
	if a.Summary.Mean < a.Summary.Min || a.Summary.Max < a.Summary.Mean {
		t.Errorf("summary not ordered: %+v", a.Summary)
	}

	// Unranking the drawn ranks reproduces the drawn costs.
	var ur UnrankResponse
	post(t, h, "/unrank", UnrankRequest{QueryRequest: QueryRequest{Query: "Q9"}, Ranks: a.Ranks[:8]}, http.StatusOK, &ur)
	for i := range ur.Plans {
		if diff := ur.Plans[i].ScaledCost - a.ScaledCosts[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("draw %d: /unrank cost %g, /sample cost %g", i, ur.Plans[i].ScaledCost, a.ScaledCosts[i])
		}
	}

	// include_plans returns one rendered tree per draw.
	var withPlans SampleResponse
	post(t, h, "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q9"}, K: 4, Seed: 7, IncludePlans: true}, http.StatusOK, &withPlans)
	if len(withPlans.Plans) != 4 {
		t.Errorf("include_plans returned %d trees for k=4", len(withPlans.Plans))
	}
	for i, tree := range withPlans.Plans {
		if tree == "" {
			t.Errorf("include_plans tree %d is empty", i)
		}
	}
}

// TestSampleWideTier: Q8 with Cartesian products (~2.7·10^22 plans)
// exceeds uint64, so the service must serve it through the wide limb
// tier — and say so in every space-touching response and in /stats.
func TestSampleWideTier(t *testing.T) {
	srv, _ := newTestServer(t)
	var resp SampleResponse
	post(t, srv.Handler(), "/sample",
		SampleRequest{QueryRequest: QueryRequest{Query: "Q8", Cross: true}, K: 4, Seed: 1},
		http.StatusOK, &resp)
	if resp.Arithmetic != "wide" {
		t.Fatalf("Q8+cross arithmetic = %q, want wide", resp.Arithmetic)
	}
	count, ok := new(big.Int).SetString(resp.Count, 10)
	if !ok {
		t.Fatalf("unparseable count %q", resp.Count)
	}
	if count.BitLen() <= 64 {
		t.Errorf("Q8+cross count %s fits uint64; fixture no longer exercises the fallback", count)
	}
	// The drawn ranks must themselves be beyond-uint64-capable strings
	// within [0, count).
	beyond := false
	for _, rs := range resp.Ranks {
		r, ok := new(big.Int).SetString(rs, 10)
		if !ok || r.Sign() < 0 || r.Cmp(count) >= 0 {
			t.Errorf("rank %q out of [0, %s)", rs, count)
		}
		if ok && r.BitLen() > 64 {
			beyond = true
		}
	}
	if !beyond {
		t.Log("note: no drawn rank exceeded 64 bits this seed")
	}

	// /unrank on the drawn wide ranks reproduces the drawn costs — the
	// arena-reused wide unranking path agrees with the sampler's.
	var ur UnrankResponse
	post(t, srv.Handler(), "/unrank",
		UnrankRequest{QueryRequest: QueryRequest{Query: "Q8", Cross: true}, Ranks: resp.Ranks},
		http.StatusOK, &ur)
	for i := range ur.Plans {
		if ur.Plans[i].Rank != resp.Ranks[i] {
			t.Errorf("unrank %d returned rank %s, want %s", i, ur.Plans[i].Rank, resp.Ranks[i])
		}
		if diff := ur.Plans[i].ScaledCost - resp.ScaledCosts[i]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("rank %s: /unrank cost %g, /sample cost %g", resp.Ranks[i], ur.Plans[i].ScaledCost, resp.ScaledCosts[i])
		}
	}

	// /stats surfaces the arithmetic tier of every cached space.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.Arithmetic["wide"] == 0 {
		t.Errorf("/stats arithmetic = %v, want a wide space counted", st.Cache.Arithmetic)
	}
}

// TestSampleWideLoopAllocationFree: the wide-tier sampling loop behind
// /sample — limb rank draws, cost by rank on the arena's limb scratch
// and cost stack, arena-backed decimal rendering — must not allocate
// per plan beyond the response strings, exactly like the uint64 loop.
func TestSampleWideLoopAllocationFree(t *testing.T) {
	_, e := newTestServer(t)
	sqlQ8, _ := tpch.Query("Q8")
	p, err := e.Session(engine.WithCartesian(true)).Prepare(sqlQ8)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Space.Wide() {
		t.Fatalf("Q8+cross tier = %s, want wide", p.Space.Arithmetic())
	}
	const k = 512
	ranks := make([]string, k)
	costs := make([]float64, k)
	smp, err := p.Sampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Wide() {
		t.Fatal("Q8+cross sampler should run the wide tier")
	}
	if err := sampleInto(p, smp, ranks, costs, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := sampleInto(p, smp, ranks, costs, nil); err != nil {
			t.Fatal(err)
		}
	})
	// k rank strings per run are response encoding; the limb buffer,
	// both arenas, and the cost stack must be steady-state.
	perPlan := (avg - k) / k
	if perPlan > 0.1 {
		t.Errorf("wide sampling loop allocates %.2f times per plan beyond response encoding (%.0f allocs for %d plans)",
			perPlan, avg, k)
	}
}

// TestExplainEndpoint: optimal and numbered plans, with scaled cost 1.0
// for the optimum.
func TestExplainEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var opt ExplainResponse
	post(t, srv.Handler(), "/explain", ExplainRequest{QueryRequest: QueryRequest{Query: "Q5"}}, http.StatusOK, &opt)
	if !opt.Optimal {
		t.Error("explain without rank should mark the optimal plan")
	}
	if opt.ScaledCost < 0.999 || opt.ScaledCost > 1.001 {
		t.Errorf("optimal scaled cost %g, want 1.0", opt.ScaledCost)
	}
	if opt.Tree == "" {
		t.Error("empty explain tree")
	}
	var byRank ExplainResponse
	post(t, srv.Handler(), "/explain", ExplainRequest{QueryRequest: QueryRequest{Query: "Q5"}, Rank: opt.Rank}, http.StatusOK, &byRank)
	if byRank.Tree != opt.Tree {
		t.Error("explaining the optimal plan by its rank gives a different tree")
	}
}

// TestStatsAndValidation: stats counters move, and malformed requests
// are rejected with client errors.
func TestStatsAndValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	post(t, h, "/count", QueryRequest{Query: "Q5"}, http.StatusOK, nil)
	post(t, h, "/count", QueryRequest{Query: "Q5"}, http.StatusOK, nil)
	post(t, h, "/count", QueryRequest{Query: "nope"}, http.StatusNotFound, nil)
	post(t, h, "/count", QueryRequest{}, http.StatusBadRequest, nil)
	post(t, h, "/count", QueryRequest{SQL: "SELECT", Query: "Q5"}, http.StatusBadRequest, nil)
	post(t, h, "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q5"}, K: -1}, http.StatusBadRequest, nil)
	post(t, h, "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q5"}, K: maxSampleK + 1}, http.StatusBadRequest, nil)

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/stats: %d", w.Code)
	}
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests["count"] != 5 {
		t.Errorf("count requests = %d, want 5", st.Requests["count"])
	}
	if st.Errors != 5 {
		t.Errorf("errors = %d, want 5", st.Errors)
	}
	if st.Cache.Misses == 0 {
		t.Error("cache misses = 0 after cold prepares")
	}
	if st.Cache.Hits == 0 {
		t.Error("cache hits = 0 after repeated count")
	}
}

// TestConcurrentClients: many clients over a real HTTP listener hitting
// a mix of endpoints and queries; every response must be correct and the
// cold fingerprints must each have been built exactly once. Run under
// -race this is the server's shared-state soak test.
func TestConcurrentClients(t *testing.T) {
	srv, e := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sqlQ5, _ := tpch.Query("Q5")
	p, err := engine.New(testDB(t)).Prepare(sqlQ5) // independent engine: reference answers
	if err != nil {
		t.Fatal(err)
	}
	wantQ5 := p.Count().String()

	const clients = 24
	var wg sync.WaitGroup
	errs := make(chan error, clients*4)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			call := func(path string, body, out any) {
				blob, _ := json.Marshal(body)
				resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
					return
				}
				if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
					errs <- fmt.Errorf("%s: %v", path, err)
				}
			}
			var ci SpaceInfo
			call("/count", QueryRequest{Query: "Q5"}, &ci)
			if ci.Count != "" && ci.Count != wantQ5 {
				errs <- fmt.Errorf("client %d: Q5 count %s, want %s", c, ci.Count, wantQ5)
			}
			var sr SampleResponse
			call("/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q9"}, K: 16, Seed: int64(c)}, &sr)
			var sq SampleResponse
			call("/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q7"}, K: 8, Seed: 3}, &sq)
			var ur UnrankResponse
			call("/unrank", UnrankRequest{QueryRequest: QueryRequest{Query: "Q5"}, Ranks: []string{"42"}}, &ur)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Three distinct fingerprints were served cold (Q5, Q9, Q7): the
	// singleflight cache must have built each exactly once.
	st := e.Cache().Stats()
	if st.Misses != 3 {
		t.Errorf("cache misses = %d, want 3 (one per distinct query)", st.Misses)
	}
	if st.Hits == 0 {
		t.Error("no cache hits across concurrent clients")
	}
}

// TestSampleLoopAllocationFree: the uint64 sampling loop behind /sample
// — batched rank draws, cost by rank on the arena's cost stack — must
// not allocate per plan. Response-payload slices (ranks, costs) are
// preallocated by the handler and excluded here; the rank's decimal
// string is the one allocation the loop makes, and it IS response
// encoding.
func TestSampleLoopAllocationFree(t *testing.T) {
	_, e := newTestServer(t)
	sqlQ9, _ := tpch.Query("Q9")
	p, err := e.Prepare(sqlQ9)
	if err != nil {
		t.Fatal(err)
	}
	const k = 512
	ranks := make([]string, k)
	costs := make([]float64, k)
	smp, err := p.Sampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if !smp.Fast() {
		t.Fatal("Q9 should run the uint64 path")
	}
	// Warm-up run grows the arena and cost stack to steady state.
	if err := sampleInto(p, smp, ranks, costs, nil); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if err := sampleInto(p, smp, ranks, costs, nil); err != nil {
			t.Fatal(err)
		}
	})
	// k allocations per run = the k rank strings (response encoding).
	// Anything meaningfully above that is a per-plan leak in the loop.
	perPlan := (avg - k) / k
	if perPlan > 0.05 {
		t.Errorf("sampling loop allocates %.2f times per plan beyond response encoding (%.0f allocs for %d plans)",
			perPlan, avg, k)
	}
}
