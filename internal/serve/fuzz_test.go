package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// fuzzPaths are the endpoints FuzzServe drives; the fuzzer picks one
// by index.
var fuzzPaths = [...]string{"/sample", "/unrank", "/explain", "/execute"}

// fuzzLimits keep a fuzzed /execute short whatever budgets it asks for.
var fuzzLimits = ExecLimits{
	DefaultTimeout: 200 * time.Millisecond,
	MaxTimeout:     500 * time.Millisecond,
	DefaultMaxRows: 100,
	MaxRows:        1_000,
	DefaultMaxWork: 20_000,
	MaxWork:        50_000,
	MaxBatchK:      4,
	MaxBatchTime:   2 * time.Second,
	MaxInlineRows:  50,
}

var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer(t testing.TB) *Server {
	db := testDB(t)
	fuzzOnce.Do(func() {
		fuzzSrv = New(engine.New(db), WithQueryResolver(tpch.Query), WithExecLimits(fuzzLimits))
	})
	return fuzzSrv
}

// fuzzSeeds is the fixed seed corpus: plain `go test` runs exactly
// these, so the test stays deterministic. Each names what it pins.
var fuzzSeeds = []struct {
	path int
	body string
}{
	{0, `{"query":"Q5","k":3,"seed":1}`},
	{0, `{"query":"Q8","cross":true,"k":2,"seed":7,"include_plans":true}`},
	{0, `{"query":"Q6","k":4096,"seed":2,"include_plans":true}`}, // at the tree cap
	{0, `{"query":"Q6","k":4097,"seed":2,"include_plans":true}`}, // above it: 400
	{0, `{"query":"Q6","k":4097,"seed":2}`},                      // no trees: no tree cap
	{0, `{"query":"Q6","k":0}`},
	{0, `{"query":"Q6","k":100001}`},
	{0, `{"query":"Q6","k":-5,"include_plans":true}`},
	{0, `{"query":"Q6","sql":"SELECT 1","k":1}`},
	{0, `{"query":"Q6","k":1,"bogus":1}`},
	{0, `{"query":"nope","k":1}`},
	{0, `{"query":"` + strings.Repeat("Q", 5000) + `","k":1}`}, // unknown name, not echoed whole
	{0, `{"sql":"SELECT l_orderkey FROM lineitem WHERE","k":1}`},
	{0, ``},
	{0, `[1,2]`},
	{1, `{"query":"Q5","ranks":["0","17","34167618591153"]}`},
	{1, `{"query":"Q8","cross":true,"ranks":["2509532728999417105196","27000000000000000000000"]}`},
	{1, `{"query":"Q5","ranks":[]}`},
	{1, `{"query":"Q5","ranks":["-1"]}`},
	{1, `{"query":"Q5","ranks":["0x10"]}`},
	{1, `{"query":"Q6","ranks":["5"]}`},
	{1, `{"query":"Q6","ranks":[4]}`},
	{2, `{"query":"Q3"}`},
	{2, `{"query":"Q3","rank":"5"}`},
	{2, `{"query":"Q8","cross":true,"rank":"123456789012345678901"}`},
	{2, `{"query":"Q3","rank":"1e3"}`},
	{2, `{"query":"Q6","rank":"5"}`},
	{3, `{"query":"Q6","timeout_ms":100}`},
	{3, `{"query":"Q6","rank":"2","include_rows":true,"max_rows":3}`},
	{3, `{"query":"Q3","timeout_ms":-1,"max_rows":-1,"max_intermediate_rows":-1}`},
	{3, `{"query":"Q3","timeout_ms":9223372036854775807,"max_intermediate_rows":9223372036854775807}`},
	{3, `{"query":"Q6","rank":"99"}`},
	{3, `{"sql":"SELECT COUNT(l_orderkey) AS n FROM lineitem OPTION (USEPLAN 3)"}`},
	{2, `{"query":"Q6","rank":"` + strings.Repeat("9", 4097) + `"}`}, // past core.MaxRankDigits
	{2, `{"query":"Q6","rank":"` + strings.Repeat("9", 4096) + `"}`}, // out of range, quoted once
	{1, `{"query":"Q6","ranks":["` + strings.Repeat("9", 4096) + `"]}`},
}

// FuzzServe sends fuzzed bodies to /sample, /unrank, /explain and
// /execute through Server.Handler and checks the contract every
// response must keep: a client error or a well-formed success, never
// a 500, a panic or an unbounded response. Plain `go test` runs the
// seed corpus; `go test -run '^$' -fuzz FuzzServe -parallel 1
// ./internal/serve` explores.
func FuzzServe(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(uint8(s.path), []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		path := fuzzPaths[int(ep)%len(fuzzPaths)]
		w := httptest.NewRecorder()
		fuzzServer(t).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if err := checkServed(path, body, w.Code, w.Body.Bytes()); err != nil {
			t.Fatalf("POST %s %.300q: status %d: %v\nresponse: %.300s", path, body, w.Code, err, w.Body.Bytes())
		}
	})
}

// checkServed is FuzzServe's contract for one response.
func checkServed(path string, body []byte, code int, resp []byte) error {
	switch code {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity:
	default:
		return fmt.Errorf("unexpected status")
	}
	if code != http.StatusOK {
		var e errorResponse
		if err := json.Unmarshal(resp, &e); err != nil || e.Error == "" {
			return fmt.Errorf("error response without an error message (%v)", err)
		}
		// An error may quote one plan number, nothing longer.
		if len(resp) > core.MaxRankDigits+1024 {
			return fmt.Errorf("error response of %d bytes echoes the request", len(resp))
		}
		return checkRejected(path, body, code)
	}
	switch path {
	case "/sample":
		var r SampleResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if r.K <= 0 || r.K > maxSampleK || len(r.Ranks) != r.K || len(r.ScaledCosts) != r.K {
			return fmt.Errorf("k %d with %d ranks and %d costs", r.K, len(r.Ranks), len(r.ScaledCosts))
		}
		if r.Plans != nil && (len(r.Plans) != r.K || r.K > maxUnrankBatch) {
			return fmt.Errorf("%d plan trees for k %d", len(r.Plans), r.K)
		}
		return costsAtLeastOne(r.ScaledCosts...)
	case "/unrank":
		var r UnrankResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if len(r.Plans) == 0 || len(r.Plans) > maxUnrankBatch {
			return fmt.Errorf("%d plans", len(r.Plans))
		}
		for _, pl := range r.Plans {
			if pl.Tree == "" {
				return fmt.Errorf("rank %s without a tree", pl.Rank)
			}
			if err := costsAtLeastOne(pl.ScaledCost); err != nil {
				return err
			}
		}
	case "/explain":
		var r ExplainResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if r.Tree == "" {
			return fmt.Errorf("empty tree")
		}
		return costsAtLeastOne(r.ScaledCost)
	case "/execute":
		var r ExecuteResponse
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		if len(r.Rows) > fuzzLimits.MaxInlineRows {
			return fmt.Errorf("%d inline rows", len(r.Rows))
		}
		if r.RowCount > fuzzLimits.MaxRows {
			return fmt.Errorf("%d rows past the %d-row ceiling", r.RowCount, fuzzLimits.MaxRows)
		}
	}
	return nil
}

// checkRejected requires that a rejected /sample request that asked for
// trees above the cap was refused as a client error, not served.
func checkRejected(path string, body []byte, code int) error {
	if path != "/sample" {
		return nil
	}
	var req SampleRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil {
		return nil
	}
	if req.IncludePlans && req.K > maxUnrankBatch && code != http.StatusBadRequest {
		return fmt.Errorf("k %d with include_plans answered %d, want 400", req.K, code)
	}
	return nil
}

// costsAtLeastOne: a scaled cost is finite and no plan beats the
// optimum (up to float rounding).
func costsAtLeastOne(costs ...float64) error {
	for _, c := range costs {
		if math.IsNaN(c) || math.IsInf(c, 0) || c < 1-1e-9 {
			return fmt.Errorf("scaled cost %g", c)
		}
	}
	return nil
}

// TestSampleIncludePlansCap: k up to maxUnrankBatch with include_plans
// is served with one tree per draw; one more is refused with 400, and
// the same k without trees is served.
func TestSampleIncludePlansCap(t *testing.T) {
	srv, _ := newTestServer(t)
	var at SampleResponse
	post(t, srv.Handler(), "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q6"}, K: maxUnrankBatch, Seed: 2, IncludePlans: true}, http.StatusOK, &at)
	if len(at.Plans) != maxUnrankBatch || len(at.Ranks) != maxUnrankBatch {
		t.Fatalf("k=%d: %d plans, %d ranks", maxUnrankBatch, len(at.Plans), len(at.Ranks))
	}
	var refused errorResponse
	post(t, srv.Handler(), "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q6"}, K: maxUnrankBatch + 1, Seed: 2, IncludePlans: true}, http.StatusBadRequest, &refused)
	if !strings.Contains(refused.Error, "include_plans") {
		t.Errorf("refusal %q does not name include_plans", refused.Error)
	}
	var costsOnly SampleResponse
	post(t, srv.Handler(), "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q6"}, K: maxUnrankBatch + 1, Seed: 2}, http.StatusOK, &costsOnly)
	if len(costsOnly.Plans) != 0 || len(costsOnly.ScaledCosts) != maxUnrankBatch+1 {
		t.Errorf("k=%d without trees: %d plans, %d costs", maxUnrankBatch+1, len(costsOnly.Plans), len(costsOnly.ScaledCosts))
	}
}

// TestOversizedRankRejected is a regression case FuzzServe found: a
// plan number of ~1 MB of digits used to be parsed into a big.Int,
// rendered back into the error message (twice on /unrank and
// /explain), and echoed, costing ~3.5 s of CPU and ~1.8 MB of response
// per request. Plan numbers longer than core.MaxRankDigits are now
// refused before parsing, with a short message.
func TestOversizedRankRejected(t *testing.T) {
	srv, _ := newTestServer(t)
	huge := strings.Repeat("9", 900_000)
	for _, c := range []struct {
		path string
		body any
		code int
	}{
		{"/unrank", UnrankRequest{QueryRequest: QueryRequest{Query: "Q6"}, Ranks: []string{huge}}, http.StatusBadRequest},
		{"/explain", ExplainRequest{QueryRequest: QueryRequest{Query: "Q6"}, Rank: huge}, http.StatusBadRequest},
		{"/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q6"}, Rank: huge}, http.StatusBadRequest},
		{"/execute", ExecuteRequest{QueryRequest: QueryRequest{SQL: "SELECT COUNT(l_orderkey) AS n FROM lineitem OPTION (USEPLAN " + huge + ")"}}, http.StatusUnprocessableEntity},
	} {
		blob, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(blob)))
		if w.Code != c.code || w.Body.Len() > 1024 || !strings.Contains(w.Body.String(), "exceeds 4096 digits") {
			t.Errorf("POST %s with a %d-digit plan number: status %d (want %d), %d-byte body %.200s",
				c.path, len(huge), w.Code, c.code, w.Body.Len(), w.Body.String())
		}
	}
}
