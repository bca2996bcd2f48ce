package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// The served configuration, as cmd/planserved sets it up by default.
const (
	scaleFactor = 0.001
	dataSeed    = 42
)

// newEngine generates the database and builds the engine the way
// cmd/planserved does: default structure-cache capacity and byte
// budget, default overlay capacity.
func newEngine() (*engine.Engine, error) {
	db, err := tpch.NewDB(scaleFactor, dataSeed)
	if err != nil {
		return nil, fmt.Errorf("generating TPC-H: %w", err)
	}
	cache := engine.NewSpaceCache(engine.DefaultCacheCapacity)
	cache.SetByteBudget(engine.DefaultCacheBytes)
	return engine.New(db, engine.WithCache(cache), engine.WithOverlayCache(engine.NewOverlayCache(engine.DefaultOverlayCapacity))), nil
}

// target sends one request and returns the status and body: over HTTP
// (httpTarget) or by calling the layers directly (direct).
type target interface {
	roundTrip(r request) (status int, body []byte, err error)
}

// server is planserved's handler on a loopback listener.
type server struct {
	eng  *engine.Engine
	url  string
	hs   *http.Server
	done chan error
}

func startServer(e *engine.Engine) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := serve.New(e, serve.WithQueryResolver(tpch.Query), serve.WithExecLimits(serve.DefaultExecLimits()))
	s := &server{
		eng:  e,
		url:  "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: h.Handler(), ReadHeaderTimeout: 5 * time.Second},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits for its serve loop to return.
func (s *server) close() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// httpTarget is one client with one keep-alive connection.
type httpTarget struct {
	url    string
	client *http.Client
}

func newHTTPTarget(url string) *httpTarget {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{url: url, client: &http.Client{Transport: tr}}
}

func (t *httpTarget) roundTrip(r request) (int, []byte, error) {
	resp, err := t.client.Post(t.url+endpointPaths[r.ep], "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (t *httpTarget) close() { t.client.CloseIdleConnections() }

// sample is one timed, checked request.
type sample struct {
	ep     endpoint
	lat    time.Duration
	done   time.Duration // when the reply was in, since the window began
	checks int
	plans  int
	err    error
}

// send times one request and checks its response.
func send(t target, e *env, r request) sample {
	start := time.Now()
	status, body, err := t.roundTrip(r)
	s := sample{ep: r.ep, lat: time.Since(start)}
	if err != nil {
		s.err = fmt.Errorf("%s %s: %w", endpointNames[r.ep], r.base, err)
		s.checks = 1
		return s
	}
	o := check(e, r, status, body)
	s.checks, s.plans, s.err = o.checks, o.plans, o.err
	return s
}

// warmUp brings a fresh server to the steady state the timed window
// measures, and learns the expectations responses are checked against:
//
//  1. /prepare each base query cold (count, tier, optimal rank), plus
//     Q8 with cross:true so every run builds one wide-tier space;
//  2. /execute each non-cross base's optimal plan and record its digest;
//  3. /feedback/apply, then /prepare each base again (a re-cost) and
//     record the optimal rank the window will see;
//  4. probe every remaining endpoint once, so every layer has run.
//
// It returns the expectations and the warm-up requests' samples.
func warmUp(t target, w *workload) (*env, []sample, error) {
	e := &env{bases: make(map[string]*baseInfo)}
	keys := append([]string{}, w.bases...)
	if !slices.Contains(keys, wideBase) {
		keys = append(keys, wideBase)
	}
	var samples []sample
	do := func(r request, into any) error {
		start := time.Now()
		status, body, err := t.roundTrip(r)
		lat := time.Since(start)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil && into != nil {
			err = json.Unmarshal(body, into)
		}
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", endpointNames[r.ep], r.base, err)
		}
		samples = append(samples, sample{ep: r.ep, lat: lat, checks: 1})
		return nil
	}
	query := func(key string) serve.QueryRequest {
		name, cross := splitBase(key)
		return serve.QueryRequest{Query: name, Cross: cross}
	}

	for _, key := range keys {
		var resp serve.PrepareResponse
		if err := do(encode(epPrepare, key, query(key), request{}), &resp); err != nil {
			return nil, nil, err
		}
		n, ok := new(big.Int).SetString(resp.Count, 10)
		if !ok || n.Sign() <= 0 {
			return nil, nil, fmt.Errorf("warm-up prepare %s: count %q", key, resp.Count)
		}
		if resp.Arithmetic != tierOf(key) {
			return nil, nil, fmt.Errorf("warm-up prepare %s: arithmetic %q, want %q", key, resp.Arithmetic, tierOf(key))
		}
		e.bases[key] = &baseInfo{count: n, text: resp.Count, count64: n.Uint64(), fits: n.IsUint64()}
	}
	for _, key := range keys {
		if _, cross := splitBase(key); cross {
			continue
		}
		var resp serve.ExecuteResponse
		if err := do(encode(epExecute, key, serve.ExecuteRequest{QueryRequest: query(key), TimeoutMs: execTimeoutMs}, request{}), &resp); err != nil {
			return nil, nil, err
		}
		if resp.Truncated || resp.Digest == "" {
			return nil, nil, fmt.Errorf("warm-up execute %s: optimal plan truncated (%s)", key, resp.Reason)
		}
		e.bases[key].digest = resp.Digest
	}
	if err := do(feedbackApply(), nil); err != nil {
		return nil, nil, err
	}
	for _, key := range keys {
		var resp serve.PrepareResponse
		if err := do(encode(epPrepare, key, query(key), request{}), &resp); err != nil {
			return nil, nil, err
		}
		e.bases[key].optimal = resp.OptimalRank
	}

	// Probes, checked like window traffic: one of each endpoint on the
	// first base, and the wide tier's sample and unrank paths.
	first := keys[0]
	probes := []request{
		encode(epCount, first, query(first), request{}),
		encode(epExplain, first, serve.ExplainRequest{QueryRequest: query(first), Rank: e.bases[first].optimal}, request{ranks: []string{e.bases[first].optimal}}),
		encode(epExecuteBatch, first, serve.ExecuteBatchRequest{QueryRequest: query(first), K: 1, Seed: 1, TimeoutMs: execTimeoutMs, MaxIntermediateRows: sampledWork}, request{k: 1}),
	}
	for _, key := range []string{first, wideBase} {
		opt := []string{e.bases[key].optimal}
		probes = append(probes,
			encode(epUnrank, key, serve.UnrankRequest{QueryRequest: query(key), Ranks: opt}, request{ranks: opt}),
			encode(epSample, key, serve.SampleRequest{QueryRequest: query(key), K: 16, Seed: 1, IncludePlans: true}, request{k: 16, plans: true}))
	}
	for _, r := range probes {
		s := send(t, e, r)
		if s.err != nil {
			return nil, nil, fmt.Errorf("warm-up probe: %w", s.err)
		}
		samples = append(samples, s)
	}
	return e, samples, nil
}
