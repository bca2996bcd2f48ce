// Command planbench is the end-to-end benchmark of planserved. In one
// process it starts serve.Server the way cmd/planserved configures it
// (TPC-H sf=0.001, data seed 42, the engine's default cache sizes and
// the default execution limits) on a loopback listener, replays one of
// three seeded request mixes from closed-loop clients for a fixed time,
// checks every response, and prints the end-to-end metrics. With
// --trace 1 it also replays client 0's stream from one client through
// the layers' exported functions, with a span around each call, and
// prints the per-layer split.
//
// Usage (from the repository root):
//
//	bash planbench/run.sh --workload serve_sample --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any check fails. See planbench/README.md for the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

type config struct {
	w       *workload
	seed    uint64
	seconds int
	trace   bool
	spans   string // where the traced replay's spans are written
	probe   float64
}

// clients is the number of closed-loop clients: two, each with one
// keep-alive connection, and never more than the machine has CPUs.
var clients = min(2, runtime.NumCPU())

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve_sample, prepare_churn or serve_execute")
		seed    = flag.Uint64("seed", 1, "workload seed; the same seed gives the same requests")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: also the traced single-client replay and per-layer metrics")
		spans   = flag.String("spans", "", "file for the traced replay's spans (default .bench_build/spans-<workload>.tsv)")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans, probe: hostProbe()}
	if cfg.spans == "" {
		cfg.spans = ".bench_build/spans-" + w.name + ".tsv"
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "planbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, cfg)
	if res.failed > 0 {
		os.Exit(1)
	}
}

// run performs one benchmark run: set-up, the timed window, and in
// trace mode the single-client replays.
func run(cfg config) (*result, error) {
	res := &result{}
	if !cfg.trace {
		// Set-up repeats so its median is steady; the last one serves
		// the window.
		const setups = 5
		var srv *server
		var e *env
		times := make([]float64, setups)
		for i := range times {
			if srv != nil {
				if err := srv.close(); err != nil {
					return nil, err
				}
				srv, e = nil, nil
				runtime.GC()
			}
			start := time.Now()
			var err error
			if srv, e, _, err = setUp(cfg.w); err != nil {
				return nil, err
			}
			times[i] = time.Since(start).Seconds()
		}
		win := runWindow(srv.url, e, cfg)
		if err := srv.close(); err != nil {
			return nil, err
		}
		res.addSamples(win.samples)
		res.endToEnd(win, median(times), peakRSSMB())
		return res, nil
	}

	srv, e, warm, err := setUp(cfg.w)
	if err != nil {
		return nil, err
	}
	win := runWindow(srv.url, e, cfg)
	if err := srv.close(); err != nil {
		return nil, err
	}
	res.addSamples(win.samples)

	httpLat, err := replayHTTP(cfg)
	if err != nil {
		return nil, err
	}
	res.addSamples(httpLat)
	plain, err := replayDirect(cfg, false)
	if err != nil {
		return nil, err
	}
	res.addSamples(plain.samples)
	traced, err := replayDirect(cfg, true)
	if err != nil {
		return nil, err
	}
	res.addSamples(traced.samples)
	if err := traced.tr.write(cfg.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	res.perLayer(win, warm, httpLat, plain, traced)
	return res, nil
}

// setUp generates the database, starts the server and warms it up over
// HTTP.
func setUp(w *workload) (*server, *env, []sample, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := startServer(eng)
	if err != nil {
		return nil, nil, nil, err
	}
	t := newHTTPTarget(srv.url)
	e, warm, err := warmUp(t, w)
	t.close()
	if err != nil {
		srv.close()
		return nil, nil, nil, err
	}
	return srv, e, warm, nil
}

// replayHTTP sends the first replay requests of client 0's stream from
// one client to a fresh server.
func replayHTTP(cfg config) ([]sample, error) {
	srv, e, _, err := setUp(cfg.w)
	if err != nil {
		return nil, err
	}
	t := newHTTPTarget(srv.url)
	st := newStream(cfg.w, e, cfg.seed, 0)
	out := make([]sample, cfg.w.replay)
	for i := range out {
		out[i] = send(t, e, st.next())
	}
	t.close()
	return out, srv.close()
}

// directReplay is one single-client replay through the layers.
type directReplay struct {
	samples []sample
	tr      *tracer
	total   time.Duration // summed request times
	evicted uint64        // structure-cache evictions during the replay
	cacheMB float64       // structure + overlay bytes after the replay
}

// replayDirect warms a fresh engine up and replays the same requests as
// replayHTTP through the layers, traced or not.
func replayDirect(cfg config, traced bool) (*directReplay, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.startRequest(-1)
	}
	d := newDirect(eng, tr)
	e, _, err := warmUp(d, cfg.w)
	if err != nil {
		return nil, err
	}
	before := eng.Cache().Stats().Evictions
	st := newStream(cfg.w, e, cfg.seed, 0)
	out := &directReplay{samples: make([]sample, cfg.w.replay), tr: tr}
	for i := range out.samples {
		tr.startRequest(int32(i + 1))
		out.samples[i] = send(d, e, st.next())
		out.total += out.samples[i].lat
	}
	cs := eng.Cache().Stats()
	out.evicted = cs.Evictions - before
	out.cacheMB = float64(cs.BytesCached+eng.Overlays().Stats().BytesCached) / (1 << 20)
	return out, nil
}

// hostProbe times a fixed loop of allocation, map and sort work that
// runs none of the program's code, and returns loops per second. On a
// shared machine the speed it reports moves with the load from other
// processes, so results from runs made at different times can be told
// apart from a change in the program.
func hostProbe() float64 {
	rng := rand.New(rand.NewPCG(1, 1))
	start := time.Now()
	loops := 0
	for ; time.Since(start) < 300*time.Millisecond; loops++ {
		m := make(map[uint64][]uint64, 1024)
		for range 2048 {
			m[rng.Uint64N(4096)] = make([]uint64, 16)
		}
		s := make([]uint64, 4096)
		for i := range s {
			s[i] = rng.Uint64()
		}
		slices.Sort(s)
	}
	return float64(loops) / time.Since(start).Seconds()
}

// provenance describes where and on what a result was measured.
func provenance(cfg config) string {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q commit=%s workload=%s seed=%d sf=%g data_seed=%d clients=%d seconds=%d trace=%t host_probe=%.0f/s",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), commit,
		cfg.w.name, cfg.seed, scaleFactor, dataSeed, clients, cfg.seconds, cfg.trace, cfg.probe)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// peak-RSS mark (VmHWM) to the current resident set, so the peak read
// at exit covers only what runs after the call.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "planbench: peak RSS not reset, it includes set-up:", err)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(v), " kB"), &kb)
			return kb / 1024
		}
	}
	return 0
}

// print writes provenance, the checks, a metric table (with sample
// counts) and, last, the JSON result line.
func (r *result) print(out io.Writer, cfg config) {
	fmt.Fprintln(out, "# provenance", provenance(cfg))
	fmt.Fprintf(out, "# checks run=%d failed=%d requests=%d\n", r.checks, r.failed, r.attempted)
	for i, err := range r.errs {
		fmt.Fprintf(out, "# failure %d: %v\n", i+1, err)
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	for _, line := range r.breakdown {
		fmt.Fprintln(out, "#", line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0 && r.checks > 0, r.attempted, r.failed, metrics})
	fmt.Fprintln(out, string(line))
}
