package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand/v2"
	"strings"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// endpoint enumerates the routes the workloads drive.
type endpoint uint8

const (
	epPrepare endpoint = iota
	epCount
	epUnrank
	epSample
	epExplain
	epExecute
	epExecuteBatch
	epFeedbackApply
	numEndpoints
)

var (
	endpointNames = [numEndpoints]string{"prepare", "count", "unrank", "sample", "explain", "execute", "execute_batch", "feedback_apply"}
	endpointPaths = [numEndpoints]string{"/prepare", "/count", "/unrank", "/sample", "/explain", "/execute", "/execute_batch", "/feedback/apply"}
)

// request is one generated HTTP request plus what its checks need.
type request struct {
	ep    endpoint
	base  string   // key of the base query in env.bases ("Q5", "Q8x"); "" for /feedback/apply
	body  []byte   // JSON body, exactly what the server receives
	k     int      // /sample k, /execute_batch k
	ranks []string // /unrank ranks; /explain and /execute carry at most one
	plans bool     // /sample include_plans
}

// Execution budgets the workloads send. The timeout is the server's
// ceiling, so a truncation depends on the plan's work and never on
// the clock; the work budget keeps pathological sampled plans short.
const (
	execTimeoutMs = 30_000
	sampledWork   = 20_000
)

// baseKey names a base query: the TPC-H name, with an "x" suffix when
// Cartesian products are allowed ("Q8x" is Q8 with cross:true).
func baseKey(name string, cross bool) string {
	if cross {
		return name + "x"
	}
	return name
}

func splitBase(key string) (name string, cross bool) {
	if strings.HasSuffix(key, "x") {
		return strings.TrimSuffix(key, "x"), true
	}
	return key, false
}

// wideBase is the one base query whose space exceeds 2^64 plans
// (~2.7e22): every workload's warm-up builds it once, so the wide tier
// is measured on every run.
const wideBase = "Q8x"

// joinQueries are the six multi-way join queries of the TPC-H set.
var joinQueries = []string{"Q3", "Q5", "Q7", "Q8", "Q9", "Q10"}

// workload is one seeded request mix.
type workload struct {
	name  string
	why   string
	bases []string // base queries set-up prepares and checks against
	// replay is the number of requests of client 0's stream that the
	// single-client replays (traced and untraced) send.
	replay int
	next   func(g *stream) request
}

var workloads = []*workload{
	{
		name:   "serve_sample",
		why:    "warm read-only plan-space traffic: rank/unrank/sample, per-plan costing and encoding",
		bases:  []string{"Q3", "Q5", "Q7", "Q8", "Q9", "Q10", wideBase},
		replay: 1500,
		next:   nextSample,
	},
	{
		name:   "prepare_churn",
		why:    "literal variants over a pool larger than the cache: parse, bind, memo expansion, counting, costing",
		bases:  append(append([]string{}, joinQueries...), "Q3x", "Q5x", "Q7x", "Q9x", "Q10x"),
		replay: 2000,
		next:   nextChurn,
	},
	{
		name:   "serve_execute",
		why:    "governed execution of optimal and sampled plans with feedback applies mixed in",
		bases:  joinQueries,
		replay: 500,
		next:   nextExecute,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// stream is one client's seeded request generator. The pool of literal
// variants (drawn from by prepare_churn) depends only on the workload
// seed, so both clients draw from the same working set; each client's
// choices come from its own generator.
type stream struct {
	w    *workload
	env  *env
	rng  *rand.Rand
	pool []variant
	zipf *rand.Zipf
}

// variant is one literal variant of a base query.
type variant struct {
	name string // TPC-H query name
	sql  string
}

// Pool sizing for prepare_churn: six times the structure cache's entry
// capacity, drawn with Zipf skew, so the hot variants stay cached while
// the tail keeps evicting.
const (
	poolSize = 6 * engine.DefaultCacheCapacity
	zipfS    = 1.1
)

func newStream(w *workload, e *env, seed uint64, client int) *stream {
	s := &stream{w: w, env: e, rng: rand.New(rand.NewPCG(seed, uint64(client)+1))}
	s.pool = variantPool(rand.New(rand.NewPCG(seed, 0)))
	s.zipf = rand.NewZipf(s.rng, zipfS, 1, uint64(len(s.pool)-1))
	return s
}

func (s *stream) next() request { return s.w.next(s) }

// nextSample: ~60% /sample, 20% /unrank, 10% /explain, 10% /count over
// the warm bases.
func nextSample(s *stream) request {
	key := s.w.bases[s.rng.IntN(len(s.w.bases))]
	name, cross := splitBase(key)
	q := serve.QueryRequest{Query: name, Cross: cross}
	info := s.env.bases[key]
	switch x := s.rng.IntN(20); {
	case x < 12:
		// About 5% of samples also render their plan trees; those draw
		// k=64, since a tree costs tens of microseconds to render.
		k := [...]int{64, 256, 1024}[s.rng.IntN(3)]
		plans := s.rng.IntN(20) == 0
		if plans {
			k = 64
		}
		return encode(epSample, key, serve.SampleRequest{QueryRequest: q, K: k, Seed: s.rng.Int64N(1 << 31), IncludePlans: plans},
			request{k: k, plans: plans})
	case x < 16:
		ranks := make([]string, 32)
		for i := range ranks {
			ranks[i] = s.rank(info.count)
		}
		if s.rng.IntN(2) == 0 {
			ranks[s.rng.IntN(len(ranks))] = info.optimal
		}
		return encode(epUnrank, key, serve.UnrankRequest{QueryRequest: q, Ranks: ranks}, request{ranks: ranks})
	case x < 18:
		r := s.rank(info.count)
		return encode(epExplain, key, serve.ExplainRequest{QueryRequest: q, Rank: r}, request{ranks: []string{r}})
	default:
		return encode(epCount, key, q, request{})
	}
}

// nextChurn: /prepare and /count over skewed literal variants, about 1
// in 8 with cross:true (never on Q8), and /feedback/apply about every
// 50 requests.
func nextChurn(s *stream) request {
	if s.rng.IntN(50) == 0 {
		return feedbackApply()
	}
	v := s.pool[s.zipf.Uint64()]
	cross := v.name != "Q8" && s.rng.IntN(8) == 0
	ep := epPrepare
	if s.rng.IntN(2) == 0 {
		ep = epCount
	}
	return encode(ep, baseKey(v.name, cross), serve.QueryRequest{SQL: v.sql, Cross: cross}, request{})
}

// nextExecute: ~72.5% /execute of the optimizer's plan, 12.5% /execute
// of a seeded rank, 12.5% /execute_batch with k=1, 2.5% /feedback/apply.
func nextExecute(s *stream) request {
	x := s.rng.IntN(40)
	if x == 0 {
		return feedbackApply()
	}
	key := s.w.bases[s.rng.IntN(len(s.w.bases))]
	q := serve.QueryRequest{Query: key}
	switch {
	case x < 6:
		r := s.rank(s.env.bases[key].count)
		return encode(epExecute, key, serve.ExecuteRequest{QueryRequest: q, Rank: r, TimeoutMs: execTimeoutMs, MaxIntermediateRows: sampledWork},
			request{ranks: []string{r}})
	case x < 11:
		return encode(epExecuteBatch, key, serve.ExecuteBatchRequest{QueryRequest: q, K: 1, Seed: s.rng.Int64N(1 << 31), TimeoutMs: execTimeoutMs, MaxIntermediateRows: sampledWork},
			request{k: 1})
	default:
		return encode(epExecute, key, serve.ExecuteRequest{QueryRequest: q, TimeoutMs: execTimeoutMs}, request{})
	}
}

// rank draws a plan number uniformly enough from [0, n): exact on the
// uint64 tier, 128 random bits reduced mod n beyond it.
func (s *stream) rank(n *big.Int) string {
	if n.IsUint64() {
		return fmt.Sprint(s.rng.Uint64N(n.Uint64()))
	}
	v := new(big.Int).SetUint64(s.rng.Uint64())
	v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(s.rng.Uint64()))
	return v.Mod(v, n).String()
}

func feedbackApply() request { return request{ep: epFeedbackApply, body: []byte("{}")} }

// encode marshals a request body of the server's own request type and
// completes r with it.
func encode(ep endpoint, key string, body any, r request) request {
	b, err := json.Marshal(body)
	if err != nil {
		panic(fmt.Sprintf("marshal %T: %v", body, err)) // static request types always marshal
	}
	r.ep, r.base, r.body = ep, key, b
	return r
}

// Literal domains of the TPC-H specification (the values the generator
// populates), for query variants that keep each base query's shape.
var (
	regions  = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations  = []string{"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES"}
	segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	types1   = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2   = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3   = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	colors   = []string{"almond", "azure", "blue", "chocolate", "forest", "green", "ivory", "lime", "navy", "orange", "red", "tan"}
	flags    = []string{"R", "A", "N"}
)

// variantPool draws poolSize literal variants, round-robin over the six
// join queries: region, nation, segment, part type and colour strings,
// and date constants.
func variantPool(rng *rand.Rand) []variant {
	pick := func(list []string) string { return list[rng.IntN(len(list))] }
	date := func(y, m, d int) string { return fmt.Sprintf("%04d-%02d-%02d", y, m, d) }
	pool := make([]variant, poolSize)
	for i := range pool {
		name := joinQueries[i%len(joinQueries)]
		text, _ := tpch.Query(name)
		var subs []string
		switch name {
		case "Q3":
			d := date(1995, 3, 1+rng.IntN(31))
			subs = []string{"'BUILDING'", "'" + pick(segments) + "'", "1995-03-15", d}
		case "Q5":
			y, m := 1993+rng.IntN(5), 1+rng.IntN(12)
			subs = []string{"'ASIA'", "'" + pick(regions) + "'", "1994-01-01", date(y, m, 1), "1995-01-01", date(y+1, m, 1)}
		case "Q7":
			a := rng.IntN(len(nations))
			b := (a + 1 + rng.IntN(len(nations)-1)) % len(nations)
			y := 1993 + rng.IntN(4)
			subs = []string{"'FRANCE'", "'" + nations[a] + "'", "'GERMANY'", "'" + nations[b] + "'",
				"1995-01-01", date(y, 1, 1), "1996-12-31", date(y+1, 12, 31)}
		case "Q8":
			ty := pick(types1) + " " + pick(types2) + " " + pick(types3)
			subs = []string{"'AMERICA'", "'" + pick(regions) + "'", "'BRAZIL'", "'" + pick(nations) + "'", "'ECONOMY ANODIZED STEEL'", "'" + ty + "'"}
		case "Q9":
			subs = []string{"'%green%'", "'%" + pick(colors) + "%'"}
		case "Q10":
			y, q := 1993+rng.IntN(3), rng.IntN(4)
			subs = []string{"1993-10-01", date(y, 1+3*q, 1), "1994-01-01", date(y+(3*q+3)/12, 1+(3*q+3)%12, 1), "'R'", "'" + pick(flags) + "'"}
		}
		pool[i] = variant{name: name, sql: strings.NewReplacer(subs...).Replace(text)}
	}
	return pool
}
