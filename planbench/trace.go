package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName names the layer call a span wraps.
type spanName uint8

const (
	spRequest       spanName = iota // one request, decode to encode
	spDecode                        // JSON decode into serve's request type
	spEncode                        // JSON encode of the response
	spParse                         // sql.Parse
	spRender                        // (*sql.SelectStmt).String, the text the fingerprint hashes
	spPrepareHit                    // Session.Prepare, both cache tiers hit
	spPrepareMiss                   // Session.Prepare, structure tier missed
	spPrepareRecost                 // Session.Prepare, structure hit, overlay missed
	spBind                          // algebra.Build
	spExpand                        // opt.BuildStructure (memo expansion)
	spCount                         // core.Prepare (counting)
	spCost                          // (*opt.Structure).Cost
	spRank                          // (*core.Space).Rank of the optimal plan
	spSampleRank                    // Sampler.SampleRanks / SampleRanksWideInto / NextRank; n = ranks drawn
	spUnrank                        // UnrankInto / UnrankBigInto / Unrank on a uint64 space
	spUnrankWide                    // UnrankWideInto / UnrankBigInto on a wide space
	spPlanCost                      // Prepared.ScaledCostWith / ScaledCost / PlanCost
	spPlanRender                    // (*plan.Node).String / Prepared.Explain
	spExecute                       // Prepared.ExecuteWith
	spDigest                        // Result.Digest / Equivalent
	spFeedbackApply                 // Engine.ApplyFeedback
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"request", "serve.decode", "serve.encode", "sql.parse", "sql.render",
	"engine.prepare_hit", "engine.prepare_miss", "engine.prepare_recost",
	"algebra.bind", "memo.expand", "core.count", "opt.cost", "core.rank",
	"core.sample_rank", "core.unrank", "core.unrank_wide", "opt.plan_cost", "plan.render",
	"engine.execute", "exec.digest", "feedback.apply",
}

// span is one timed layer call. Shadow spans re-run a stage that
// Session.Prepare performs inside the engine (parse, render, and on a
// tier miss bind, expand, count, cost, rank) on the same statement,
// after the request has finished: they split their parent's time into
// stages and are not part of the request's own time.
type span struct {
	start, end int64 // ns since the tracer's origin
	req        int32 // request id; negative during warm-up
	parent     int32 // index of the parent span, -1 for a request
	n          int32 // items the call handled (ranks drawn); 1 otherwise
	name       spanName
	shadow     bool
}

// counter is work a layer did, counted where the work happens.
type counter uint8

const (
	cRequests counter = iota
	cPrepares
	cStructureHits
	cOverlayHits
	cStructureBuilds
	cRecosts
	cMemoExprs
	cPlansUnranked
	cExecutions
	cTruncated
	cRowsExamined
	cFolded
	cResponseBytes
	numCounters
)

// tracer records spans and counters of one single-client replay in
// memory. A nil *tracer records nothing, so the same replay code runs
// traced and untraced.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int32
	req    int32
	counts [2][numCounters]int64 // [warm-up, replay]
}

func newTracer() *tracer { return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// startRequest sets the id the next spans carry.
func (t *tracer) startRequest(id int32) {
	if t != nil {
		t.req = id
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	return t.open(name, parent, false)
}

// beginShadow opens a shadow span under an explicit (closed) parent.
func (t *tracer) beginShadow(name spanName, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.open(name, parent, true)
}

func (t *tracer) open(name spanName, parent int32, shadow bool) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{req: t.req, parent: parent, n: 1, name: name, shadow: shadow})
	t.stack = append(t.stack, id)
	t.spans[id].start = t.now()
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// endN closes span id and records how many items it handled.
func (t *tracer) endN(id int32, n int) {
	if t == nil {
		return
	}
	t.end(id)
	t.spans[id].n = int32(n)
}

// rename relabels a span once its outcome is known.
func (t *tracer) rename(id int32, name spanName) {
	if t != nil {
		t.spans[id].name = name
	}
}

func (t *tracer) add(c counter, v int64) {
	if t == nil {
		return
	}
	phase := 1
	if t.req < 0 {
		phase = 0
	}
	t.counts[phase][c] += v
}

// layerStat aggregates one span name over one phase.
type layerStat struct {
	calls int64
	items int64
	total time.Duration
	self  time.Duration
}

// traceStats aggregates spans by phase (0 warm-up, 1 replay) and name.
type traceStats struct {
	layers   [2][numSpanNames]layerStat
	requests [2]int64
	reqTime  [2]time.Duration // sum of request spans' durations
}

// stats computes per-layer totals and self times. A span's self time is
// its duration minus its children's; shadow children split their
// parent's time, so a request's self times add up to its duration.
func (t *tracer) stats() traceStats {
	var st traceStats
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		phase := 1
		if s.req < 0 {
			phase = 0
		}
		d := s.end - s.start
		l := &st.layers[phase][s.name]
		l.calls++
		l.items += int64(s.n)
		l.total += time.Duration(d)
		l.self += time.Duration(max(0, d-child[i]))
		if s.name == spRequest {
			st.requests[phase]++
			st.reqTime[phase] += time.Duration(d)
		}
	}
	return st
}

// write saves the spans as tab-separated rows: request id, span id,
// parent id, name, start and end (ns since the replay began), items,
// shadow flag.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "req\tid\tparent\tname\tstart_ns\tend_ns\tn\tshadow")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%t\n", s.req, i, s.parent, spanNames[s.name], s.start, s.end, s.n, s.shadow)
	}
	return w.Flush()
}
