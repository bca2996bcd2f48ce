package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/serve"
)

// baseInfo is what set-up learned about one base query; every response
// for the query or one of its literal variants is checked against it.
type baseInfo struct {
	count   *big.Int
	text    string // count in decimal
	count64 uint64 // count, when it fits 64 bits
	fits    bool
	optimal string // optimal rank after warm-up
	digest  string // optimal plan's result digest ("" for cross bases, never executed)
}

// env holds the base queries of one set-up.
type env struct {
	bases map[string]*baseInfo
}

// costTol is the slack on "a sampled plan costs at least the optimum":
// the optimum is the minimum of the space, up to float rounding.
const costTol = 1e-9

// checker counts assertions and keeps the first failure.
type checker struct {
	n   int
	err error
}

func (c *checker) expect(ok bool, format string, args ...any) bool {
	c.n++
	if !ok && c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	return ok
}

// outcome is the verdict on one response.
type outcome struct {
	checks int
	err    error
	plans  int // plans the response carries (ranks with costs)
}

// check validates one response against the request and the set-up's
// expectations. A non-200 status, an undecodable body or any failed
// assertion makes the request a failure.
func check(e *env, r request, status int, body []byte) outcome {
	var c checker
	if !c.expect(status == http.StatusOK, "%s %s: status %d: %.200s", endpointNames[r.ep], r.base, status, body) {
		return outcome{checks: c.n, err: c.err}
	}
	if r.ep == epFeedbackApply {
		var resp serve.FeedbackApplyResponse
		if c.expect(json.Unmarshal(body, &resp) == nil, "feedback_apply: undecodable body") {
			c.expect(resp.Epoch > 0 && resp.Folded >= 0, "feedback_apply: epoch %d folded %d", resp.Epoch, resp.Folded)
		}
		return outcome{checks: c.n, err: c.err}
	}
	info := e.bases[r.base]
	if !c.expect(info != nil, "%s: unknown base query %q", endpointNames[r.ep], r.base) {
		return outcome{checks: c.n, err: c.err}
	}
	plans := 0
	switch r.ep {
	case epPrepare:
		var resp serve.PrepareResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			c.inRange(r, info, resp.OptimalRank)
			c.expect(resp.OptimalCost > 0, "prepare %s: optimal cost %g", r.base, resp.OptimalCost)
			plans = 1
		}
	case epCount:
		var resp serve.SpaceInfo
		if c.decode(r, body, &resp) {
			c.space(r, info, resp)
		}
	case epSample:
		var resp serve.SampleResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			c.expect(len(resp.Ranks) == r.k && len(resp.ScaledCosts) == r.k, "sample %s: %d ranks, %d costs, want %d", r.base, len(resp.Ranks), len(resp.ScaledCosts), r.k)
			for i, rk := range resp.Ranks {
				c.inRange(r, info, rk)
				if i < len(resp.ScaledCosts) {
					c.costAtLeastOne(r, resp.ScaledCosts[i])
				}
			}
			if r.plans {
				c.expect(len(resp.Plans) == r.k, "sample %s: %d plans, want %d", r.base, len(resp.Plans), r.k)
			}
			plans = len(resp.Ranks)
		}
	case epUnrank:
		var resp serve.UnrankResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			if c.expect(len(resp.Plans) == len(r.ranks), "unrank %s: %d plans for %d ranks", r.base, len(resp.Plans), len(r.ranks)) {
				for i, pl := range resp.Plans {
					c.expect(pl.Rank == r.ranks[i] && pl.Tree != "", "unrank %s: plan %d is rank %s, want %s", r.base, i, pl.Rank, r.ranks[i])
					c.costAtLeastOne(r, pl.ScaledCost)
					if pl.Rank == info.optimal {
						c.expect(math.Abs(pl.ScaledCost-1) <= costTol, "unrank %s: optimal rank %s has scaled cost %g", r.base, pl.Rank, pl.ScaledCost)
					}
				}
			}
			plans = len(resp.Plans)
		}
	case epExplain:
		var resp serve.ExplainResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			c.expect(resp.Rank == r.ranks[0] && resp.Tree != "", "explain %s: rank %s, want %s", r.base, resp.Rank, r.ranks[0])
			c.costAtLeastOne(r, resp.ScaledCost)
			plans = 1
		}
	case epExecute:
		var resp serve.ExecuteResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			c.inRange(r, info, resp.Rank)
			if len(r.ranks) == 0 {
				c.expect(math.Abs(resp.ScaledCost-1) <= costTol, "execute %s: optimal plan has scaled cost %g", r.base, resp.ScaledCost)
			} else {
				c.expect(resp.Rank == r.ranks[0], "execute %s: ran rank %s, want %s", r.base, resp.Rank, r.ranks[0])
			}
			c.execution(r, info, resp.ScaledCost, resp.Truncated, resp.Reason, resp.Digest, "")
			plans = 1
		}
	case epExecuteBatch:
		var resp serve.ExecuteBatchResponse
		if c.decode(r, body, &resp) {
			c.space(r, info, resp.SpaceInfo)
			c.expect(len(resp.Plans) == r.k, "execute_batch %s: %d plans, want %d", r.base, len(resp.Plans), r.k)
			ref := resp.Optimal
			c.inRange(r, info, ref.Rank)
			c.execution(r, info, ref.ScaledCost, ref.Truncated, ref.Reason, ref.Digest, ref.Error)
			for _, pl := range resp.Plans {
				c.inRange(r, info, pl.Rank)
				c.sampledExecution(r, ref, pl)
			}
			plans = 1 + len(resp.Plans)
		}
	}
	return outcome{checks: c.n, err: c.err, plans: plans}
}

func (c *checker) decode(r request, body []byte, v any) bool {
	err := json.Unmarshal(body, v)
	return c.expect(err == nil, "%s %s: undecodable body: %v", endpointNames[r.ep], r.base, err)
}

// space checks the count against set-up's count for the base query
// (literal variants keep the space) and the arithmetic tier: "wide" on
// Q8 with cross:true and "uint64" everywhere else, so a silent tier
// fallback fails instead of only slowing down.
func (c *checker) space(r request, info *baseInfo, s serve.SpaceInfo) {
	c.expect(s.Count == info.text, "%s %s: count %s, want %s", endpointNames[r.ep], r.base, s.Count, info.text)
	c.expect(s.Arithmetic == tierOf(r.base), "%s %s: arithmetic %q, want %q", endpointNames[r.ep], r.base, s.Arithmetic, tierOf(r.base))
}

func tierOf(key string) string {
	if key == wideBase {
		return "wide"
	}
	return "uint64"
}

func (c *checker) inRange(r request, info *baseInfo, rank string) {
	var ok bool
	if info.fits {
		v, err := strconv.ParseUint(rank, 10, 64)
		ok = err == nil && v < info.count64
	} else {
		// A canonical decimal below the count: no leading zero, and
		// shorter than the count or as long and before it in byte order.
		ok = rank != "" && (rank == "0" || rank[0] != '0') && strings.Trim(rank, "0123456789") == "" &&
			(len(rank) < len(info.text) || len(rank) == len(info.text) && rank < info.text)
	}
	c.expect(ok, "%s %s: rank %q outside [0, %s)", endpointNames[r.ep], r.base, rank, info.text)
}

func (c *checker) costAtLeastOne(r request, sc float64) {
	c.expect(sc >= 1-costTol, "%s %s: scaled cost %g below the optimum", endpointNames[r.ep], r.base, sc)
}

// execution checks one executed plan: it costs at least the optimum; a
// completed run returns the optimal plan's rows (every plan of a space
// computes the same result); a truncated run names its reason, and the
// reason is never the clock.
//
// Rows are compared by digest, the only form /execute returns. The
// digest renders floats to 6 significant digits, so two plans that sum
// in different orders can, rarely, land on both sides of a rounding
// boundary and fail this check on correct code; /execute_batch's
// sampled plans are compared with the server's tolerant
// matches_optimal instead (sampledExecution).
func (c *checker) execution(r request, info *baseInfo, sc float64, truncated bool, reason, digest, errText string) {
	name := endpointNames[r.ep]
	if !c.expect(errText == "", "%s %s: plan error: %s", name, r.base, errText) {
		return
	}
	c.costAtLeastOne(r, sc)
	if c.truncation(r, truncated, reason) {
		return
	}
	c.expect(digest == info.digest, "%s %s: digest %.12s, optimal plan's is %.12s", name, r.base, digest, info.digest)
}

// sampledExecution checks one sampled plan of /execute_batch against
// the batch's reference run of the optimal plan: when both completed,
// the server's row comparison (floats within a relative 1e-9) must
// find the same rows.
func (c *checker) sampledExecution(r request, ref, pl serve.BatchPlanResult) {
	name := endpointNames[r.ep]
	if !c.expect(pl.Error == "", "%s %s: plan error: %s", name, r.base, pl.Error) {
		return
	}
	c.costAtLeastOne(r, pl.ScaledCost)
	if c.truncation(r, pl.Truncated, pl.Reason) || ref.Truncated || ref.Error != "" {
		return
	}
	c.expect(pl.MatchesOptimal, "%s %s: plan %s returned other rows than the optimal plan", name, r.base, pl.Rank)
}

// truncation reports whether a run was truncated, and checks that it
// names its reason and that the reason is never the clock.
func (c *checker) truncation(r request, truncated bool, reason string) bool {
	if truncated {
		c.expect(reason != "" && reason != "deadline_exceeded", "%s %s: truncated with reason %q", endpointNames[r.ep], r.base, reason)
	}
	return truncated
}
