package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// window is the timed closed-loop run: every client sends its next
// request only after the previous reply has arrived.
type window struct {
	samples []sample
	elapsed time.Duration
	rt      runtimeDelta
}

func runWindow(url string, e *env, cfg config) window {
	// Collect set-up garbage first, so every window starts from the
	// same heap, and start the peak-RSS mark from there.
	runtime.GC()
	resetPeakRSS()
	per := make([][]sample, clients)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds) * time.Second)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := newHTTPTarget(url)
			defer t.close()
			st := newStream(cfg.w, e, cfg.seed, c)
			for time.Now().Before(deadline) {
				s := send(t, e, st.next())
				s.done = time.Since(start)
				per[c] = append(per[c], s)
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start), rt: readRuntime().sub(before)}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// runtimeDelta is what the Go runtime reports over the window.
type runtimeDelta struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
}

var runtimeNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{v(0), v(1), v(2), v(3)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// metric is one printed result.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count or source, for the table only
}

// result accumulates one run's samples and metrics.
type result struct {
	attempted, failed, checks int
	errs                      []error // the first few failures
	metrics                   []metric
	breakdown                 []string
}

func (r *result) addSamples(ss []sample) {
	for _, s := range ss {
		r.attempted++
		r.checks += s.checks
		if s.err != nil {
			r.failed++
			if len(r.errs) < 5 {
				r.errs = append(r.errs, s.err)
			}
		}
	}
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// The timing metrics are medians over slices of the window, so load
// from outside the process that lasts a few seconds of a run does not
// set them. A slice lasts at least sliceSeconds and holds, where the
// window allows, at least sliceRequests requests, so its p99 has ten
// samples beyond it.
const (
	sliceSeconds  = 2
	sliceRequests = 1000
)

// endToEnd reports the metrics a user of planserved sees.
func (r *result) endToEnd(w window, setupS, rssMB float64) {
	plans, failed := 0, 0
	for _, s := range w.samples {
		plans += s.plans
		if s.err != nil {
			failed++
		}
	}
	// Each request belongs to the slice its reply arrived in.
	n := max(1, min(int(w.elapsed.Seconds()/sliceSeconds), len(w.samples)/sliceRequests))
	width := w.elapsed / time.Duration(n)
	bySlice := make([][]sample, n)
	for _, s := range w.samples {
		i := min(int(s.done/width), n-1)
		bySlice[i] = append(bySlice[i], s)
	}
	var rps, p50, p99, pps []float64
	for _, ss := range bySlice {
		lat := latenciesMs(ss)
		sliced := 0
		for _, s := range ss {
			sliced += s.plans
		}
		rps = append(rps, float64(len(ss))/width.Seconds())
		pps = append(pps, float64(sliced)/width.Seconds())
		if len(lat) > 0 {
			p50 = append(p50, quantile(lat, 0.50))
			p99 = append(p99, quantile(lat, 0.99))
		}
	}
	note := fmt.Sprintf("n=%d, median of %d slices", len(w.samples), n)
	r.add("throughput_rps", median(rps), "1/s", note)
	r.add("p50_ms", median(p50), "ms", note)
	r.add("p99_ms", median(p99), "ms", note)
	r.add("plans_per_s", median(pps), "1/s", fmt.Sprintf("plans=%d, median of %d slices", plans, n))
	r.add("success_ratio", 1-float64(failed)/float64(max(1, len(w.samples))), "ratio", fmt.Sprintf("failed=%d", failed))
	r.add("peak_rss_mb", rssMB, "MB", "VmHWM over the window")
	r.add("setup_s", setupS, "s", "median of 5 set-ups")
}

// perLayer reports the traced replay's split and the untraced runs'
// per-endpoint and runtime figures.
func (r *result) perLayer(w window, warm, httpLat []sample, plain, traced *directReplay) {
	st := traced.tr.stats()
	cnt := traced.tr.counts[1]
	// A per-call time comes from the replay; a layer the replay never
	// calls reports its warm-up calls instead.
	mean := func(n spanName) (time.Duration, string) {
		for _, ph := range []int{1, 0} {
			if l := st.layers[ph][n]; l.calls > 0 {
				return l.total / time.Duration(l.calls), fmt.Sprintf("calls=%d%s", l.calls, warmNote(ph))
			}
		}
		return 0, "calls=0"
	}
	us := func(name string, n spanName) {
		d, note := mean(n)
		r.add(name, float64(d)/1e3, "us", note)
	}
	ms := func(name string, n spanName) {
		d, note := mean(n)
		r.add(name, float64(d)/1e6, "ms", note)
	}
	ns := func(name string, n spanName) {
		d, note := mean(n)
		r.add(name, float64(d), "ns", note)
	}
	ratio := func(name string, num, den int64) {
		r.add(name, float64(num)/float64(max(1, den)), "ratio", fmt.Sprintf("%d/%d", num, den))
	}
	count := func(name string, c counter) { r.add(name, float64(cnt[c]), "count", "replay") }

	us("sql.parse_us", spParse)
	us("sql.render_us", spRender)
	us("algebra.bind_us", spBind)
	ms("memo.expand_ms", spExpand)
	count("memo.exprs", cMemoExprs)
	ms("core.count_ms", spCount)
	us("opt.cost_us", spCost)
	us("core.rank_us", spRank)

	ms("engine.prepare_miss_ms", spPrepareMiss)
	us("engine.prepare_hit_us", spPrepareHit)
	ratio("engine.structure_hit_ratio", cnt[cStructureHits], cnt[cPrepares])
	ratio("engine.overlay_hit_ratio", cnt[cOverlayHits], cnt[cPrepares])
	count("engine.structure_builds", cStructureBuilds)
	count("engine.recosts", cRecosts)
	r.add("engine.evictions", float64(traced.evicted), "count", "replay")
	r.add("engine.cache_mb", traced.cacheMB, "MB", "structure+overlay bytes")

	sr := st.layers[1][spSampleRank]
	if sr.items == 0 {
		sr = st.layers[0][spSampleRank]
	}
	r.add("core.sample_rank_ns", float64(sr.total)/float64(max(1, sr.items)), "ns", fmt.Sprintf("ranks=%d", sr.items))
	ns("core.unrank_ns", spUnrank)
	ns("core.unrank_wide_ns", spUnrankWide)
	count("core.plans_unranked", cPlansUnranked)
	ns("opt.plan_cost_ns", spPlanCost)
	us("plan.render_us", spPlanRender)

	ms("engine.execute_ms", spExecute)
	count("exec.rows_examined", cRowsExamined)
	trunc, execs := cnt[cTruncated], cnt[cExecutions]
	if execs == 0 {
		trunc, execs = traced.tr.counts[0][cTruncated], traced.tr.counts[0][cExecutions]
	}
	ratio("exec.truncated_ratio", trunc, execs)
	us("exec.digest_us", spDigest)

	us("feedback.apply_us", spFeedbackApply)
	count("feedback.folded", cFolded)
	us("feedback.recost_us", spPrepareRecost)

	us("serve.decode_us", spDecode)
	us("serve.encode_us", spEncode)
	r.add("serve.response_kb", float64(cnt[cResponseBytes])/float64(max(1, cnt[cRequests]))/1024, "KiB", "replay")
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		lat, note := endpointLatencies(w.samples, warm, ep)
		r.add("serve."+endpointNames[ep]+".p50_ms", quantile(lat, 0.50), "ms", note)
		r.add("serve."+endpointNames[ep]+".p99_ms", quantile(lat, 0.99), "ms", note)
	}
	reqTime := st.reqTime[1]
	reqs := float64(max(1, st.requests[1]))
	var httpTotal time.Duration
	for _, s := range httpLat {
		httpTotal += s.lat
	}
	r.add("serve.unaccounted_us", (float64(httpTotal)/float64(max(1, len(httpLat)))-float64(reqTime)/reqs)/1e3, "us", "untraced HTTP minus traced request")

	nreq := float64(max(1, len(w.samples)))
	r.add("runtime.alloc_bytes_per_req", w.rt.allocBytes/nreq, "B", "window")
	r.add("runtime.allocs_per_req", w.rt.allocObjects/nreq, "count", "window")
	r.add("runtime.gc_cpu_frac", w.rt.gcCPU/max(w.rt.totalCPU, 1e-9), "ratio", "window")

	r.add("trace.overhead_frac", float64(reqTime)/float64(max(1, plain.total))-1, "ratio", "traced vs untraced direct replay")
	share := func(name string, names ...spanName) {
		var sum time.Duration
		for _, n := range names {
			sum += st.layers[1][n].total
		}
		r.add(name, float64(sum)/float64(max(1, reqTime)), "ratio", "of traced request time")
	}
	share("trace.build_share", spExpand, spCount, spCost)
	share("trace.sample_share", spSampleRank, spUnrank, spUnrankWide, spCount, spRank, spPlanCost, spEncode)
	share("trace.execute_share", spExecute)

	r.breakdown = append(r.breakdown, fmt.Sprintf("traced replay: %d requests, %.1f ms request time; self time by layer:", st.requests[1], float64(reqTime)/1e6))
	for n := spanName(0); n < numSpanNames; n++ {
		if l := st.layers[1][n]; l.calls > 0 {
			r.breakdown = append(r.breakdown, fmt.Sprintf("  %-22s calls=%-8d total=%9.2fms self=%9.2fms %5.1f%%",
				spanNames[n], l.calls, float64(l.total)/1e6, float64(l.self)/1e6, 100*float64(l.self)/float64(max(1, reqTime))))
		}
	}
}

func warmNote(phase int) string {
	if phase == 0 {
		return " (warm-up)"
	}
	return ""
}

// endpointLatencies returns the window's latencies for one endpoint;
// an endpoint outside the workload's mix reports its warm-up requests.
func endpointLatencies(win, warm []sample, ep endpoint) ([]float64, string) {
	for _, src := range []struct {
		ss   []sample
		note string
	}{{win, ""}, {warm, " (warm-up)"}} {
		var sel []sample
		for _, s := range src.ss {
			if s.ep == ep {
				sel = append(sel, s)
			}
		}
		if len(sel) > 0 {
			return latenciesMs(sel), fmt.Sprintf("n=%d%s", len(sel), src.note)
		}
	}
	return nil, "n=0"
}

func latenciesMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / 1e6
	}
	slices.Sort(out)
	return out
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}
