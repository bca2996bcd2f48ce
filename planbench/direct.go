package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/tpch"
)

// direct serves requests by calling the layers' exported functions in
// the order planserved's handlers call them, with no HTTP in between,
// and records a span around each call when tr is non-nil. Its responses
// are the handlers' response types, so the same checks apply.
type direct struct {
	eng *engine.Engine
	lim serve.ExecLimits
	tr  *tracer

	// shadows are stage re-runs queued by the current request; they
	// run once the request span has closed.
	shadows []shadow
}

// shadow re-runs the stages of one Session.Prepare call.
type shadow struct {
	parent int32
	sess   *engine.Session
	p      *engine.Prepared
	stages bool // the call missed a cache tier
}

func newDirect(e *engine.Engine, tr *tracer) *direct {
	return &direct{eng: e, lim: serve.DefaultExecLimits(), tr: tr}
}

func (d *direct) roundTrip(r request) (int, []byte, error) {
	root := d.tr.begin(spRequest)
	body, err := d.handle(r)
	d.tr.end(root)
	d.tr.add(cRequests, 1)
	d.tr.add(cResponseBytes, int64(len(body)))
	for _, s := range d.shadows {
		if serr := d.runShadow(s); serr != nil && err == nil {
			err = serr
		}
	}
	d.shadows = d.shadows[:0]
	if err != nil {
		// Which non-200 status a handler would answer does not matter:
		// any is a failed request.
		return http.StatusInternalServerError, []byte(err.Error()), nil
	}
	return http.StatusOK, body, nil
}

func (d *direct) handle(r request) ([]byte, error) {
	switch r.ep {
	case epPrepare:
		var req serve.QueryRequest
		if err := d.decode(r.body, &req); err != nil {
			return nil, err
		}
		p, err := d.prepare(req)
		if err != nil {
			return nil, err
		}
		rank, _ := p.OptimalRank()
		st := p.Opt.Memo.Stats()
		return d.encode(serve.PrepareResponse{
			SpaceInfo:   spaceInfo(p),
			Canonical:   p.Shared.Canonical,
			Groups:      st.Groups,
			PhysicalOps: st.PhysicalOps,
			EnforcerOps: st.EnforcerOps,
			OptimalCost: p.OptimalCost(),
			OptimalRank: rank.String(),
		})
	case epCount:
		var req serve.QueryRequest
		if err := d.decode(r.body, &req); err != nil {
			return nil, err
		}
		p, err := d.prepare(req)
		if err != nil {
			return nil, err
		}
		return d.encode(spaceInfo(p))
	case epUnrank:
		return d.unrank(r)
	case epSample:
		return d.sample(r)
	case epExplain:
		return d.explain(r)
	case epExecute:
		return d.execute(r)
	case epExecuteBatch:
		return d.executeBatch(r)
	case epFeedbackApply:
		sp := d.tr.begin(spFeedbackApply)
		folded, epoch := d.eng.ApplyFeedback()
		d.tr.end(sp)
		d.tr.add(cFolded, int64(folded))
		return d.encode(serve.FeedbackApplyResponse{
			Epoch:       epoch,
			Folded:      folded,
			Corrections: d.eng.Feedback().Corrections(),
			Invalidated: d.eng.Overlays().Stats().Invalidations,
		})
	}
	return nil, fmt.Errorf("no endpoint %d", r.ep)
}

func (d *direct) decode(body []byte, v any) error {
	sp := d.tr.begin(spDecode)
	defer d.tr.end(sp)
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %v", err)
	}
	return nil
}

func (d *direct) encode(v any) ([]byte, error) {
	sp := d.tr.begin(spEncode)
	defer d.tr.end(sp)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// prepare is the handlers' shared Prepare path. The span is relabelled
// by the cache outcome; the parse, render and (on a miss) stage
// re-runs are queued as its shadows.
func (d *direct) prepare(q serve.QueryRequest) (*engine.Prepared, error) {
	sqlText := q.SQL
	if q.Query != "" {
		var ok bool
		if sqlText, ok = tpch.Query(q.Query); !ok {
			return nil, fmt.Errorf("unknown query %q", q.Query)
		}
	}
	sess := d.eng.Session(engine.WithCartesian(q.Cross))
	sp := d.tr.begin(spPrepareHit)
	p, err := sess.Prepare(sqlText)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("prepare: %v", err)
	}
	d.tr.add(cPrepares, 1)
	switch {
	case !p.Cached:
		d.tr.rename(sp, spPrepareMiss)
		d.tr.add(cStructureBuilds, 1)
	case !p.OverlayCached:
		d.tr.rename(sp, spPrepareRecost)
		d.tr.add(cStructureHits, 1)
		d.tr.add(cRecosts, 1)
	default:
		d.tr.add(cStructureHits, 1)
		d.tr.add(cOverlayHits, 1)
	}
	if d.tr != nil {
		d.shadows = append(d.shadows, shadow{parent: sp, sess: sess, p: p, stages: !p.Cached || !p.OverlayCached})
	}
	return p, nil
}

// runShadow re-runs on the same statement what Session.Prepare did
// inside the engine: parse and render always; on a structure miss bind,
// expand and count; on any tier miss cost and rank. The re-cost runs
// without feedback corrections (the engine's corrector is internal).
func (d *direct) runShadow(s shadow) error {
	t := d.tr
	sp := t.beginShadow(spParse, s.parent)
	stmt, err := sql.Parse(s.p.SQL)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.beginShadow(spRender, s.parent)
	_ = stmt.String()
	t.end(sp)
	if !s.stages {
		return nil
	}
	st, space := s.p.Shared.Struct, s.p.Space
	if !s.p.Cached {
		sp = t.beginShadow(spBind, s.parent)
		q, err := algebra.Build(s.p.Stmt, d.eng.DB().Catalog())
		t.end(sp)
		if err != nil {
			return err
		}
		sp = t.beginShadow(spExpand, s.parent)
		st, err = opt.BuildStructure(q, s.sess.Options().Rules)
		t.end(sp)
		if err != nil {
			return err
		}
		ms := st.Memo.Stats()
		t.add(cMemoExprs, int64(ms.LogicalOps+ms.PhysicalOps))
		sp = t.beginShadow(spCount, s.parent)
		space, err = core.Prepare(st.Memo)
		t.end(sp)
		if err != nil {
			return err
		}
	}
	sp = t.beginShadow(spCost, s.parent)
	c, err := st.Cost(s.sess.Options().Params, nil)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.beginShadow(spRank, s.parent)
	_, err = space.Rank(c.Best)
	t.end(sp)
	return err
}

func spaceInfo(p *engine.Prepared) serve.SpaceInfo {
	return serve.SpaceInfo{
		Fingerprint:   p.Fingerprint().String(),
		Count:         p.Count().String(),
		Arithmetic:    p.Space.Arithmetic(),
		Cached:        p.Cached,
		OverlayCached: p.OverlayCached,
	}
}

// unrankName labels an unrank span by the tier serving the space.
func unrankName(p *engine.Prepared) spanName {
	if p.Arithmetic() == "wide" {
		return spUnrankWide
	}
	return spUnrank
}

func (d *direct) unrank(r request) ([]byte, error) {
	var req serve.UnrankRequest
	if err := d.decode(r.body, &req); err != nil {
		return nil, err
	}
	p, err := d.prepare(req.QueryRequest)
	if err != nil {
		return nil, err
	}
	resp := serve.UnrankResponse{SpaceInfo: spaceInfo(p), Plans: make([]serve.PlanResponse, 0, len(req.Ranks))}
	var costBuf plan.CostBuf
	var arena core.Arena
	for _, text := range req.Ranks {
		rank, ok := new(big.Int).SetString(text, 10)
		if !ok || rank.Sign() < 0 {
			return nil, fmt.Errorf("invalid plan number %q", text)
		}
		sp := d.tr.begin(unrankName(p))
		pl, err := p.Space.UnrankBigInto(rank, &arena)
		d.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("unrank %s: %v", rank, err)
		}
		d.tr.add(cPlansUnranked, 1)
		sc, err := d.scaledCost(p, pl, &costBuf)
		if err != nil {
			return nil, err
		}
		resp.Plans = append(resp.Plans, serve.PlanResponse{Rank: rank.String(), ScaledCost: sc, Tree: d.render(pl)})
	}
	return d.encode(resp)
}

func (d *direct) scaledCost(p *engine.Prepared, pl *plan.Node, buf *plan.CostBuf) (float64, error) {
	sp := d.tr.begin(spPlanCost)
	sc, err := p.ScaledCostWith(pl, buf)
	d.tr.end(sp)
	return sc, err
}

func (d *direct) render(pl *plan.Node) string {
	sp := d.tr.begin(spPlanRender)
	s := pl.String()
	d.tr.end(sp)
	return s
}

func (d *direct) sample(r request) ([]byte, error) {
	var req serve.SampleRequest
	if err := d.decode(r.body, &req); err != nil {
		return nil, err
	}
	p, err := d.prepare(req.QueryRequest)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ranks := make([]string, req.K)
	costs := make([]float64, req.K)
	var plans []string
	if req.IncludePlans {
		plans = make([]string, req.K)
	}
	smp, err := p.Sampler(req.Seed)
	if err != nil {
		return nil, fmt.Errorf("sampler: %v", err)
	}
	switch {
	case smp.Fast():
		err = d.sampleFast(p, smp, ranks, costs, plans)
	case smp.Wide():
		err = d.sampleWide(p, smp, ranks, costs, plans)
	default:
		err = fmt.Errorf("sampling %s: math/big tier", p.Fingerprint())
	}
	if err != nil {
		return nil, fmt.Errorf("sampling: %v", err)
	}
	d.tr.add(cPlansUnranked, int64(req.K))
	sum := histogram.Summarize(costs)
	return d.encode(serve.SampleResponse{
		SpaceInfo:   spaceInfo(p),
		K:           req.K,
		Seed:        req.Seed,
		Ranks:       ranks,
		ScaledCosts: costs,
		Summary: serve.SampleSummary{
			Min: sum.Min, Mean: sum.Mean, Max: sum.Max,
			WithinTwo: sum.WithinTwo, WithinTen: sum.WithinTen,
		},
		Plans:    plans,
		SampleMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// sampleFast is the handler's uint64 loop: batched ranks, one arena,
// one cost stack.
func (d *direct) sampleFast(p *engine.Prepared, smp *core.Sampler, ranks []string, costs []float64, plans []string) error {
	const chunk = 1024
	var raw [chunk]uint64
	var arena core.Arena
	var costBuf plan.CostBuf
	var numBuf [20]byte
	for off := 0; off < len(ranks); off += chunk {
		n := min(len(ranks)-off, chunk)
		sp := d.tr.begin(spSampleRank)
		err := smp.SampleRanks(raw[:n])
		d.tr.endN(sp, n)
		if err != nil {
			return err
		}
		for i, rk := range raw[:n] {
			sp := d.tr.begin(spUnrank)
			pl, err := p.Space.UnrankInto(rk, &arena)
			d.tr.end(sp)
			if err != nil {
				return err
			}
			if costs[off+i], err = d.scaledCost(p, pl, &costBuf); err != nil {
				return err
			}
			ranks[off+i] = string(strconv.AppendUint(numBuf[:0], rk, 10))
			if plans != nil {
				plans[off+i] = d.render(pl)
			}
		}
	}
	return nil
}

// sampleWide is the handler's wide-tier loop: flat limb batches, one
// arena, allocation-free decimal rendering.
func (d *direct) sampleWide(p *engine.Prepared, smp *core.Sampler, ranks []string, costs []float64, plans []string) error {
	const chunk = 256
	stride := p.Space.RankLimbs()
	raw := make([]uint64, chunk*stride)
	var arena core.Arena
	var dec core.WideArena
	var costBuf plan.CostBuf
	decBuf := make([]byte, 0, 64)
	for off := 0; off < len(ranks); off += chunk {
		n := min(len(ranks)-off, chunk)
		sp := d.tr.begin(spSampleRank)
		err := smp.SampleRanksWideInto(raw, n)
		d.tr.endN(sp, n)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			rk := core.WideNorm(raw[i*stride : (i+1)*stride])
			sp := d.tr.begin(spUnrankWide)
			pl, err := p.Space.UnrankWideInto(rk, &arena)
			d.tr.end(sp)
			if err != nil {
				return err
			}
			if costs[off+i], err = d.scaledCost(p, pl, &costBuf); err != nil {
				return err
			}
			dec.Reset()
			ranks[off+i] = string(core.AppendWideDecimal(decBuf[:0], rk, &dec))
			if plans != nil {
				plans[off+i] = d.render(pl)
			}
		}
	}
	return nil
}

func (d *direct) explain(r request) ([]byte, error) {
	var req serve.ExplainRequest
	if err := d.decode(r.body, &req); err != nil {
		return nil, err
	}
	p, err := d.prepare(req.QueryRequest)
	if err != nil {
		return nil, err
	}
	var (
		pl   *plan.Node
		rank *big.Int
	)
	if req.Rank == "" {
		pl = p.OptimalPlan()
		rank, _ = p.OptimalRank()
	} else {
		var ok bool
		if rank, ok = new(big.Int).SetString(req.Rank, 10); !ok || rank.Sign() < 0 {
			return nil, fmt.Errorf("invalid plan number %q", req.Rank)
		}
		if pl, err = d.unrankBig(p, rank); err != nil {
			return nil, fmt.Errorf("unrank %s: %v", rank, err)
		}
	}
	sp := d.tr.begin(spPlanCost)
	cost, err := p.PlanCost(pl)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("costing: %v", err)
	}
	sp = d.tr.begin(spPlanRender)
	tree, err := p.Explain(pl)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("explain: %v", err)
	}
	return d.encode(serve.ExplainResponse{
		SpaceInfo:  spaceInfo(p),
		Rank:       rank.String(),
		Cost:       cost,
		ScaledCost: cost / p.OptimalCost(),
		Optimal:    req.Rank == "",
		Tree:       tree,
	})
}

func (d *direct) unrankBig(p *engine.Prepared, rank *big.Int) (*plan.Node, error) {
	sp := d.tr.begin(unrankName(p))
	pl, err := p.Unrank(rank)
	d.tr.end(sp)
	if err == nil {
		d.tr.add(cPlansUnranked, 1)
	}
	return pl, err
}

// limits resolves a request's budgets against the server's defaults
// and ceilings, as the execute handlers do.
func (d *direct) limits(timeoutMs, maxRows, maxWork int64) exec.Options {
	l := d.lim
	o := exec.Options{Timeout: l.DefaultTimeout, MaxRows: l.DefaultMaxRows, MaxIntermediateRows: l.DefaultMaxWork}
	if timeoutMs > 0 {
		o.Timeout = time.Duration(min(timeoutMs, int64(l.MaxTimeout/time.Millisecond))) * time.Millisecond
	}
	if maxRows > 0 {
		o.MaxRows = min(maxRows, l.MaxRows)
	}
	if maxWork > 0 {
		o.MaxIntermediateRows = min(maxWork, l.MaxWork)
	}
	return o
}

// run executes one plan under the Governor and digests its result.
func (d *direct) run(ctx context.Context, p *engine.Prepared, pl *plan.Node, o exec.Options) (*exec.Result, string, error) {
	sp := d.tr.begin(spExecute)
	res, err := p.ExecuteWith(ctx, pl, o)
	d.tr.end(sp)
	if err != nil {
		return nil, "", err
	}
	d.tr.add(cExecutions, 1)
	d.tr.add(cRowsExamined, res.Stats.RowsExamined)
	if res.Stats.Truncated {
		d.tr.add(cTruncated, 1)
	}
	sp = d.tr.begin(spDigest)
	digest := res.Digest()
	d.tr.end(sp)
	return res, digest, nil
}

// execute mirrors Session.Execute as the /execute handler calls it.
func (d *direct) execute(r request) ([]byte, error) {
	var req serve.ExecuteRequest
	if err := d.decode(r.body, &req); err != nil {
		return nil, err
	}
	o := d.limits(req.TimeoutMs, req.MaxRows, req.MaxIntermediateRows)
	p, err := d.prepare(req.QueryRequest)
	if err != nil {
		return nil, err
	}
	var (
		pl   *plan.Node
		rank *big.Int
	)
	if req.Rank != "" {
		var ok bool
		if rank, ok = new(big.Int).SetString(req.Rank, 10); !ok || rank.Sign() < 0 || rank.Cmp(p.Count()) >= 0 {
			return nil, fmt.Errorf("plan %s out of range", req.Rank)
		}
		if pl, err = d.unrankBig(p, rank); err != nil {
			return nil, fmt.Errorf("execute: %v", err)
		}
	} else {
		pl = p.OptimalPlan()
		rank, _ = p.OptimalRank()
	}
	sp := d.tr.begin(spPlanCost)
	sc, err := p.ScaledCost(pl)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("execute: %v", err)
	}
	res, digest, err := d.run(context.Background(), p, pl, o)
	if err != nil {
		return nil, fmt.Errorf("execute: %v", err)
	}
	return d.encode(serve.ExecuteResponse{
		SpaceInfo:    spaceInfo(p),
		Rank:         rank.String(),
		ScaledCost:   sc,
		RowCount:     res.Stats.RowsProduced,
		RowsExamined: res.Stats.RowsExamined,
		Truncated:    res.Stats.Truncated,
		Reason:       res.Stats.Reason,
		Digest:       digest,
		ElapsedMs:    float64(res.Stats.Elapsed.Microseconds()) / 1000,
		Operators:    res.Stats.Operators,
	})
}

// executeBatch mirrors the /execute_batch handler: the optimal plan as
// reference, then k sampled plans, each compared against it.
func (d *direct) executeBatch(r request) ([]byte, error) {
	var req serve.ExecuteBatchRequest
	if err := d.decode(r.body, &req); err != nil {
		return nil, err
	}
	if req.K <= 0 || req.K > d.lim.MaxBatchK {
		return nil, fmt.Errorf("k = %d out of range", req.K)
	}
	p, err := d.prepare(req.QueryRequest)
	if err != nil {
		return nil, err
	}
	o := d.limits(req.TimeoutMs, req.MaxRows, req.MaxIntermediateRows)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), d.lim.MaxBatchTime)
	defer cancel()
	optimalRank, _ := p.OptimalRank()
	reference, optimal := d.executeOne(ctx, p, optimalRank, o)
	optimal.MatchesOptimal = reference != nil && !optimal.Truncated
	resp := serve.ExecuteBatchResponse{SpaceInfo: spaceInfo(p), K: req.K, Seed: req.Seed, Optimal: optimal, Plans: make([]serve.BatchPlanResult, 0, req.K)}
	smp, err := p.Sampler(req.Seed)
	if err != nil {
		return nil, fmt.Errorf("sampler: %v", err)
	}
	for i := 0; i < req.K; i++ {
		sp := d.tr.begin(spSampleRank)
		rank := smp.NextRank()
		d.tr.end(sp)
		res, one := d.executeOne(ctx, p, rank, o)
		if reference != nil && res != nil && !reference.Stats.Truncated && !res.Stats.Truncated {
			sp := d.tr.begin(spDigest)
			one.MatchesOptimal = res.Equivalent(reference, 1e-9)
			d.tr.end(sp)
		}
		resp.Plans = append(resp.Plans, one)
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	return d.encode(resp)
}

func (d *direct) executeOne(ctx context.Context, p *engine.Prepared, rank *big.Int, o exec.Options) (*exec.Result, serve.BatchPlanResult) {
	out := serve.BatchPlanResult{Rank: rank.String()}
	pl, err := d.unrankBig(p, rank)
	if err != nil {
		out.Error = err.Error()
		return nil, out
	}
	sp := d.tr.begin(spPlanCost)
	if sc, err := p.ScaledCost(pl); err == nil {
		out.ScaledCost = sc
	}
	d.tr.end(sp)
	res, digest, err := d.run(ctx, p, pl, o)
	if err != nil {
		out.Error = err.Error()
		return nil, out
	}
	out.LatencyMs = float64(res.Stats.Elapsed.Microseconds()) / 1000
	out.RowCount = res.Stats.RowsProduced
	out.RowsExamined = res.Stats.RowsExamined
	out.Truncated = res.Stats.Truncated
	out.Reason = res.Stats.Reason
	out.Digest = digest
	return res, out
}
