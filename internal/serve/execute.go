package serve

import (
	"context"
	"math/big"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
)

// ExecLimits are the server-enforced execution budgets: every /execute
// and /execute_batch request runs under a Governor configured from
// these, so an adversarially bad sampled plan (the whole point of
// sampling is to find and study them) cannot hang the server or eat its
// memory. Clients may ask for tighter or looser limits per request, but
// never beyond the Max* ceilings.
type ExecLimits struct {
	DefaultTimeout time.Duration // per plan, when the request omits timeout_ms
	MaxTimeout     time.Duration // ceiling on requested timeouts
	DefaultMaxRows int64         // output row cap, when omitted
	MaxRows        int64         // ceiling on requested row caps
	DefaultMaxWork int64         // intermediate-row budget, when omitted
	MaxWork        int64         // ceiling on requested budgets
	MaxBatchK      int           // plans per /execute_batch request
	MaxBatchTime   time.Duration // wall-clock ceiling on a WHOLE /execute_batch request
	MaxInlineRows  int           // rows rendered into a response body
}

// DefaultExecLimits returns the production defaults.
func DefaultExecLimits() ExecLimits {
	return ExecLimits{
		DefaultTimeout: 2 * time.Second,
		MaxTimeout:     30 * time.Second,
		DefaultMaxRows: 10_000,
		MaxRows:        1_000_000,
		DefaultMaxWork: 5_000_000,
		MaxWork:        100_000_000,
		MaxBatchK:      64,
		MaxBatchTime:   60 * time.Second,
		MaxInlineRows:  1_000,
	}
}

// WithExecLimits replaces the server's execution budgets (tests use
// tiny ones to make pathological plans die fast).
func WithExecLimits(l ExecLimits) Option {
	return func(s *Server) { s.execLimits = l }
}

// clamp resolves a client's requested budgets against the server's
// defaults and ceilings.
func (l ExecLimits) clamp(timeoutMs, maxRows, maxWork int64) engine.ExecOptions {
	opts := engine.ExecOptions{
		Timeout:             l.DefaultTimeout,
		MaxRows:             l.DefaultMaxRows,
		MaxIntermediateRows: l.DefaultMaxWork,
	}
	if timeoutMs > 0 {
		// Clamp in milliseconds before converting: a huge timeout_ms
		// would overflow the Duration multiply to a negative value and
		// slip past the ceiling as "no deadline at all".
		if maxMs := int64(l.MaxTimeout / time.Millisecond); l.MaxTimeout > 0 && timeoutMs > maxMs {
			timeoutMs = maxMs
		}
		opts.Timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if l.MaxTimeout > 0 && opts.Timeout > l.MaxTimeout {
		opts.Timeout = l.MaxTimeout
	}
	if maxRows > 0 {
		opts.MaxRows = maxRows
	}
	if l.MaxRows > 0 && opts.MaxRows > l.MaxRows {
		opts.MaxRows = l.MaxRows
	}
	if maxWork > 0 {
		opts.MaxIntermediateRows = maxWork
	}
	if l.MaxWork > 0 && opts.MaxIntermediateRows > l.MaxWork {
		opts.MaxIntermediateRows = l.MaxWork
	}
	return opts
}

// ExecuteRequest runs one plan of the query's space: the rank given
// here, else the SQL's OPTION (USEPLAN n), else the optimizer's choice.
// All budget fields are optional; the server applies its defaults and
// ceilings (see ExecLimits).
type ExecuteRequest struct {
	QueryRequest
	Rank                string `json:"rank,omitempty"`
	TimeoutMs           int64  `json:"timeout_ms,omitempty"`
	MaxRows             int64  `json:"max_rows,omitempty"`
	MaxIntermediateRows int64  `json:"max_intermediate_rows,omitempty"`
	IncludeRows         bool   `json:"include_rows,omitempty"`
}

// ExecuteResponse reports one governed execution. When truncated is
// true the counters describe the prefix that ran before the stated
// reason cut it off, and digest describes only that prefix.
type ExecuteResponse struct {
	SpaceInfo
	Rank         string         `json:"rank"`
	ScaledCost   float64        `json:"scaled_cost"`
	RowCount     int64          `json:"row_count"`
	RowsExamined int64          `json:"rows_examined"`
	Truncated    bool           `json:"truncated"`
	Reason       string         `json:"truncated_reason,omitempty"`
	Digest       string         `json:"digest"`
	ElapsedMs    float64        `json:"elapsed_ms"`
	Operators    []exec.OpStats `json:"operators"`
	Columns      []string       `json:"columns,omitempty"`
	Rows         [][]string     `json:"rows,omitempty"`
	// RowsOmitted counts result rows not rendered into Rows because of
	// the server's inline-row cap; the digest and row_count always
	// describe the full result.
	RowsOmitted int64 `json:"rows_omitted,omitempty"`
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	s.reqs[epExecute].Add(1)
	var req ExecuteRequest
	if !s.decode(w, r, &req) {
		return
	}
	sqlText, ok := s.resolveSQL(w, req.QueryRequest)
	if !ok {
		return
	}
	opts := s.execLimits.clamp(req.TimeoutMs, req.MaxRows, req.MaxIntermediateRows)
	if req.Rank != "" {
		rank, err := core.ParseRank(req.Rank)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		opts.Rank = rank
	}
	exe, err := s.engine.Session(engine.WithCartesian(req.Cross)).Execute(r.Context(), sqlText, opts)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "execute: %v", err)
		return
	}
	resp := ExecuteResponse{
		SpaceInfo:    spaceInfo(exe.Prepared),
		Rank:         exe.Rank.String(),
		ScaledCost:   exe.ScaledCost,
		RowCount:     exe.Result.Stats.RowsProduced,
		RowsExamined: exe.Result.Stats.RowsExamined,
		Truncated:    exe.Result.Stats.Truncated,
		Reason:       exe.Result.Stats.Reason,
		Digest:       exe.Result.Digest(),
		ElapsedMs:    float64(exe.Result.Stats.Elapsed.Microseconds()) / 1000,
		Operators:    exe.Result.Stats.Operators,
	}
	if req.IncludeRows {
		resp.Columns = exe.Result.Columns
		resp.Rows = renderRows(exe.Result, s.execLimits.MaxInlineRows)
		resp.RowsOmitted = int64(len(exe.Result.Rows) - len(resp.Rows))
	}
	writeJSON(w, resp)
}

// renderRows stringifies up to limit result rows for the JSON body.
func renderRows(res *exec.Result, limit int) [][]string {
	n := len(res.Rows)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([][]string, n)
	for i := 0; i < n; i++ {
		row := res.Rows[i]
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.String()
		}
		out[i] = cells
	}
	return out
}

// ExecuteBatchRequest samples k plans uniformly and executes each under
// a per-plan budget — the paper's "run the sampled plans and study
// their latency distribution" loop as one HTTP call. The optimizer's
// plan is always executed first as the reference.
type ExecuteBatchRequest struct {
	QueryRequest
	K                   int   `json:"k"`
	Seed                int64 `json:"seed"`
	TimeoutMs           int64 `json:"timeout_ms,omitempty"` // per plan
	MaxRows             int64 `json:"max_rows,omitempty"`
	MaxIntermediateRows int64 `json:"max_intermediate_rows,omitempty"`
}

// BatchPlanResult is one executed plan of the batch. matches_optimal is
// meaningful only when neither this plan nor the reference was
// truncated and error is empty: it reports whether the plan produced
// the same multiset of rows as the optimizer's plan (the paper's
// verification invariant).
type BatchPlanResult struct {
	Rank           string  `json:"rank"`
	ScaledCost     float64 `json:"scaled_cost"`
	LatencyMs      float64 `json:"latency_ms"`
	RowCount       int64   `json:"row_count"`
	RowsExamined   int64   `json:"rows_examined"`
	Truncated      bool    `json:"truncated"`
	Reason         string  `json:"truncated_reason,omitempty"`
	Digest         string  `json:"digest,omitempty"`
	MatchesOptimal bool    `json:"matches_optimal"`
	Error          string  `json:"error,omitempty"`
}

// ExecuteBatchResponse carries the reference execution and the sampled
// ones, in draw order.
type ExecuteBatchResponse struct {
	SpaceInfo
	K         int               `json:"k"`
	Seed      int64             `json:"seed"`
	Optimal   BatchPlanResult   `json:"optimal"`
	Plans     []BatchPlanResult `json:"plans"`
	ElapsedMs float64           `json:"elapsed_ms"`
}

func (s *Server) handleExecuteBatch(w http.ResponseWriter, r *http.Request) {
	s.reqs[epExecuteBatch].Add(1)
	var req ExecuteBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K <= 0 || req.K > s.execLimits.MaxBatchK {
		s.writeErr(w, http.StatusBadRequest, "k = %d out of range (0, %d]", req.K, s.execLimits.MaxBatchK)
		return
	}
	p, ok := s.prepare(w, req.QueryRequest)
	if !ok {
		return
	}
	opts := s.execLimits.clamp(req.TimeoutMs, req.MaxRows, req.MaxIntermediateRows)
	execOpts := exec.Options{
		Timeout:             opts.Timeout,
		MaxRows:             opts.MaxRows,
		MaxIntermediateRows: opts.MaxIntermediateRows,
	}
	start := time.Now()
	// Per-plan budgets alone would let k × MaxTimeout hold this handler
	// for many minutes; the whole batch gets one wall-clock ceiling, and
	// plans that never got to run come back truncated deadline_exceeded.
	ctx := r.Context()
	if s.execLimits.MaxBatchTime > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.execLimits.MaxBatchTime)
		defer cancel()
	}

	optimalRank, err := p.OptimalRank()
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "ranking optimal plan: %v", err)
		return
	}
	reference, optimal := s.executeOne(ctx, p, optimalRank, execOpts)
	optimal.MatchesOptimal = reference != nil && !optimal.Truncated // trivially true when it completed
	resp := ExecuteBatchResponse{
		SpaceInfo: spaceInfo(p),
		K:         req.K,
		Seed:      req.Seed,
		Optimal:   optimal,
		Plans:     make([]BatchPlanResult, 0, req.K),
	}

	smp, err := p.Sampler(req.Seed)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "sampler: %v", err)
		return
	}
	for i := 0; i < req.K; i++ {
		rank := smp.NextRank()
		res, one := s.executeOne(ctx, p, rank, execOpts)
		if reference != nil && res != nil && !reference.Stats.Truncated && !res.Stats.Truncated {
			one.MatchesOptimal = res.Equivalent(reference, 1e-9)
		}
		resp.Plans = append(resp.Plans, one)
		if r.Context().Err() != nil {
			break // client gone: stop burning budget on undeliverable work
		}
		// When only the batch ceiling (MaxBatchTime ctx) has expired we
		// keep looping: each remaining draw returns instantly as a
		// truncated deadline_exceeded entry, so plans[] stays aligned
		// with the seeded draw sequence.
	}
	resp.ElapsedMs = float64(time.Since(start).Microseconds()) / 1000
	writeJSON(w, resp)
}

// executeOne runs one ranked plan under the per-plan budget, folding
// any error into the result row (a batch reports per-plan failures, it
// does not abort).
func (s *Server) executeOne(ctx context.Context, p *engine.Prepared, rank *big.Int, opts exec.Options) (*exec.Result, BatchPlanResult) {
	out := BatchPlanResult{Rank: rank.String()}
	pl, err := p.Unrank(rank)
	if err != nil {
		out.Error = err.Error()
		return nil, out
	}
	if sc, err := p.ScaledCost(pl); err == nil {
		out.ScaledCost = sc
	}
	res, err := p.ExecuteWith(ctx, pl, opts)
	if err != nil {
		out.Error = err.Error()
		return nil, out
	}
	out.LatencyMs = float64(res.Stats.Elapsed.Microseconds()) / 1000
	out.RowCount = res.Stats.RowsProduced
	out.RowsExamined = res.Stats.RowsExamined
	out.Truncated = res.Stats.Truncated
	out.Reason = res.Stats.Reason
	out.Digest = res.Digest()
	return res, out
}
