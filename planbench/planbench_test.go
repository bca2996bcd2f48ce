package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// directEnv warms a fresh engine up through the layers and returns the
// expectations a stream is generated against.
func directEnv(t *testing.T, w *workload) *env {
	t.Helper()
	eng, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := warmUp(newDirect(eng, nil), w)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func streamBytes(w *workload, e *env, seed uint64, client, n int) []byte {
	var buf bytes.Buffer
	st := newStream(w, e, seed, client)
	for i := 0; i < n; i++ {
		r := st.next()
		buf.WriteString(endpointPaths[r.ep])
		buf.WriteByte(' ')
		buf.Write(r.body)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestStreamDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e := directEnv(t, w)
			a := streamBytes(w, e, 7, 0, 500)
			if b := streamBytes(w, directEnv(t, w), 7, 0, 500); !bytes.Equal(a, b) {
				t.Fatal("same seed, different request stream")
			}
			if b := streamBytes(w, e, 8, 0, 500); bytes.Equal(a, b) {
				t.Fatal("different seeds, same request stream")
			}
			if b := streamBytes(w, e, 7, 1, 500); bytes.Equal(a, b) {
				t.Fatal("both clients send the same stream")
			}
		})
	}
}

func TestGeneratedRequestsSucceed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			srv, e, _, err := setUp(w)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.close()
			tgt := newHTTPTarget(srv.url)
			defer tgt.close()
			n := min(w.replay, 300)
			for client := 0; client < 2; client++ {
				st := newStream(w, e, 3, client)
				for i := 0; i < n; i++ {
					if s := send(tgt, e, st.next()); s.err != nil {
						t.Fatalf("client %d request %d: %v", client, i, s.err)
					}
				}
			}
		})
	}
}

// The layer replay (direct) must do the handlers' work: the same
// requests, sent over HTTP and through direct, each to a fresh set-up,
// get the same response bodies once the fields that vary between runs
// are dropped.
func TestDirectMatchesHTTP(t *testing.T) {
	varying := map[string]bool{
		"prepare_ms": true, "sample_ms": true, "elapsed_ms": true, "latency_ms": true, // timings
		"cached": true, "overlay_cached": true, // cache shards follow process-wide catalog ids
		"fingerprint": true, // hashes the catalog id
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			srv, e, _, err := setUp(w)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.close()
			viaHTTP := newHTTPTarget(srv.url)
			defer viaHTTP.close()
			eng, err := newEngine()
			if err != nil {
				t.Fatal(err)
			}
			viaLayers := newDirect(eng, newTracer())
			if _, _, err := warmUp(viaLayers, w); err != nil {
				t.Fatal(err)
			}
			st := newStream(w, e, 3, 0)
			for i := 0; i < min(w.replay, 400); i++ {
				r := st.next()
				var bodies [2]any
				for j, tgt := range []target{viaHTTP, viaLayers} {
					status, body, err := tgt.roundTrip(r)
					if err != nil || status != 200 {
						t.Fatalf("request %d %s: status %d, %v: %.200s", i, endpointPaths[r.ep], status, err, body)
					}
					if err := json.Unmarshal(body, &bodies[j]); err != nil {
						t.Fatalf("request %d %s: %v", i, endpointPaths[r.ep], err)
					}
					dropKeys(bodies[j], varying)
				}
				if !reflect.DeepEqual(bodies[0], bodies[1]) {
					t.Fatalf("request %d %s %s: HTTP and layer replay differ:\n%v\n%v", i, endpointPaths[r.ep], r.body, bodies[0], bodies[1])
				}
			}
		})
	}
}

// dropKeys deletes the named keys from every object in a decoded JSON
// value.
func dropKeys(v any, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if keys[k] {
				delete(v, k)
			} else {
				dropKeys(x, keys)
			}
		}
	case []any:
		for _, x := range v {
			dropKeys(x, keys)
		}
	}
}

// TestMain lets a test re-execute its own binary as the benchmark.
func TestMain(m *testing.M) {
	if os.Getenv("PLANBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBenchmark runs the benchmark in a fresh process and returns its
// JSON result line.
func runBenchmark(t *testing.T, args ...string) map[string]float64 {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PLANBENCH_AS_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct {
		t.Fatalf("%v: result %q (%v)", args, lines[len(lines)-1], err)
	}
	vals := make(map[string]float64, len(res.Metrics))
	for k, v := range res.Metrics {
		vals[k] = v.Value
	}
	return vals
}

// The single-client traced replay is deterministic: run twice with one
// seed, each in a fresh process (as a benchmark run is), its work counts
// repeat exactly. Within one process they need not, since the engine
// keys its cache shards by process-wide catalog ids.
func TestTracedReplayCountsRepeat(t *testing.T) {
	exact := []string{"memo.exprs", "core.plans_unranked", "exec.rows_examined", "engine.structure_builds", "engine.recosts", "feedback.folded"}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"--workload", w.name, "--seed", "5", "--seconds", "1", "--trace", "1",
				"--spans", filepath.Join(t.TempDir(), "spans.tsv")}
			a, b := runBenchmark(t, args...), runBenchmark(t, args...)
			for _, name := range exact {
				if a[name] != b[name] {
					t.Errorf("%s: %v then %v", name, a[name], b[name])
				}
			}
		})
	}
}
