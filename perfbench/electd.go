package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/serve"
	"wcle/internal/sim"
)

// electd-mixed: two closed-loop HTTP clients, in lockstep, against an
// in-process electd server. Each client's fixed list holds
// electdOpsPerClient ops; one in ten is a write (register a new graph,
// then GET it, which computes its spectral profile on first use) ahead of
// its job, the rest only submit a job on a graph registered at set-up
// (profile cache hits).
const (
	electdClients      = 2
	electdOpsPerClient = 10
	// A client polls its job after electdPollMin, then after an eighth of
	// the time it has waited so far, at most electdPollMax: a ~15 ms job
	// sees ~12 polls and a 500 ms one ~55, instead of one per millisecond.
	// Each poll costs client and server CPU inside the measured process
	// (serve.poll_cpu_share reports how much).
	electdPollMin = time.Millisecond
	electdPollMax = 16 * time.Millisecond
)

// pollDelay is the wait before the next poll of a job submitted waited ago.
func pollDelay(waited time.Duration) time.Duration {
	return min(max(waited/8, electdPollMin), electdPollMax)
}

// electdReadGraphs are the graphs registered (and profiled) at set-up.
var electdReadGraphs = []int{64, 96}

// electdBackends rotate over the read-path jobs.
var electdBackends = []string{algo.GilbertRS18, algo.KPPRT, algo.FloodMax}

// electdOp is one client op.
type electdOp struct {
	// writeN > 0 registers a new rr8 graph of that size first.
	writeN    int
	writeSeed int64
	req       serve.SubmitRequest
}

type electdMixed struct {
	ops  [electdClients][]electdOp
	rot  int
	reg  map[string]serve.GraphSpec
	srv  *electdServer // untraced
	tsrv *electdServer // started on the first traced pass
	// results holds each distinct request's latest job result.
	mu      sync.Mutex
	results map[string]*serve.JobResult
	// lastJob is the status path of the latest submitted job.
	lastJob string
	passNo  int
}

// electdServer is one in-process server behind an httptest listener.
type electdServer struct {
	s    *serve.Server
	http *httptest.Server
}

func setupElectdMixed(seed int64, st *setupStats) (workload, error) {
	w := &electdMixed{rot: rotation(seed, electdOpsPerClient), reg: map[string]serve.GraphSpec{}, results: map[string]*serve.JobResult{}}
	for i, n := range electdReadGraphs {
		spec, _, err := buildGraph(n, inputSeed("electd-mixed/graph", i), st)
		if err != nil {
			return nil, err
		}
		w.reg[fmt.Sprintf("rr8-%d", n)] = spec
	}
	var err error
	if w.srv, err = startElectd(w.reg, nil, st); err != nil {
		return nil, err
	}
	for c := 0; c < electdClients; c++ {
		for i := 0; i < electdOpsPerClient; i++ {
			k := c*electdOpsPerClient + i
			read := fmt.Sprintf("rr8-%d", electdReadGraphs[i%len(electdReadGraphs)])
			op := electdOp{req: serve.SubmitRequest{
				Seed:   inputSeed("electd-mixed", k),
				Points: []serve.PointSpec{{Graph: read, Trials: 1, Algorithm: electdBackends[i%len(electdBackends)]}},
			}}
			if i == 0 {
				op.writeN = 64 + 64*((c*3)%4) // 64 and 256: the write path's size range
				op.writeSeed = inputSeed("electd-mixed/write", c)
			}
			w.ops[c] = append(w.ops[c], op)
		}
	}
	return w, nil
}

// startElectd builds a server, registers the read graphs over HTTP and
// warms their profiles with a GET, timing that GET as the profile cost.
func startElectd(graphs map[string]serve.GraphSpec, lay *layers, st *setupStats) (*electdServer, error) {
	opts := serve.Options{Workers: 2, QueueCap: 64, ElectionWorkers: 1}
	if lay != nil {
		opts.TraceSink = lay.spans
	}
	s, err := serve.NewServer(opts)
	if err != nil {
		return nil, err
	}
	es := &electdServer{s: s, http: httptest.NewServer(s.Handler())}
	for name, spec := range graphs {
		if err := es.register(name, spec); err != nil {
			es.close()
			return nil, err
		}
		t0 := time.Now()
		if err := es.get("/v1/graphs/"+name, nil); err != nil {
			es.close()
			return nil, err
		}
		if st != nil {
			st.profileMs = append(st.profileMs, ms(time.Since(t0)))
		}
	}
	return es, nil
}

// close stops the listener and waits for the scheduler's jobs to drain.
func (es *electdServer) close() {
	es.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = es.s.Drain(ctx) // every job has finished: clients poll to completion
}

// post sends a JSON body and decodes a JSON reply; it returns the status.
func (es *electdServer) post(path string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := es.http.Client().Post(es.http.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

func (es *electdServer) get(path string, out any) error {
	resp, err := es.http.Client().Get(es.http.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (es *electdServer) register(name string, spec serve.GraphSpec) error {
	var info serve.GraphInfo
	code, err := es.post("/v1/graphs", serve.RegisterRequest{Name: name, Spec: spec}, &info)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("register %s: HTTP %d", name, code)
	}
	return err
}

// clientStats are one client's traced counters, merged after the pass.
type clientStats struct {
	submitMs, registerMs, queuedMs, runMs []float64
	polls, refused                        int64
}

func (w *electdMixed) pass(lay *layers, between func()) ([]rec, error) {
	es := w.srv
	if lay != nil {
		if w.tsrv == nil {
			t0 := time.Now()
			var err error
			if w.tsrv, err = startElectd(w.reg, lay, nil); err != nil {
				return nil, err
			}
			lay.extra += time.Since(t0)
		}
		es = w.tsrv
	}
	w.passNo++
	hits0, misses0, _ := es.s.Registry.CacheStats()
	k := electdOpsPerClient
	out := make([]rec, electdClients*k)
	stats := make([]clientStats, electdClients)
	errs := make([]error, electdClients)
	t0 := time.Now()
	// The clients run in lockstep: both start op i together and the next
	// op starts when both have finished. Which ops overlap is then fixed by
	// the list, so an op's latency does not depend on how far the other
	// client has drifted. Each step starts on a freshly collected heap, as
	// timeOp's ops do; the step's process CPU time is split evenly between
	// its two ops, which ran concurrently.
	var cpu, gaps time.Duration
	for j := 0; j < k; j++ {
		i := (w.rot + j) % k
		g0 := time.Now()
		between()
		gaps += time.Since(g0)
		runtime.GC()
		cpu0, at := cpuTime(), time.Now()
		var wg sync.WaitGroup
		for c := 0; c < electdClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				t := time.Now()
				r, err := w.do(es, c, i, &stats[c])
				if err != nil {
					errs[c] = fmt.Errorf("client %d op %d: %w", c, i, err)
					return
				}
				r.ms = ms(time.Since(t))
				out[c*k+i] = r
			}(c)
		}
		wg.Wait()
		step, end := cpuTime()-cpu0, time.Now()
		cpu += step
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		for c := 0; c < electdClients; c++ {
			out[c*k+i].cpu = step / electdClients
			out[c*k+i].at, out[c*k+i].end = at, end
		}
	}
	wall := time.Since(t0) - gaps
	if lay != nil {
		hits, misses, _ := es.s.Registry.CacheStats()
		lay.cacheHits += hits - hits0
		lay.cacheMisses += misses - misses0
		lay.ops += int64(len(out))
		lay.opNs += int64(wall) * electdClients
		lay.serveCPU += cpu
		for _, s := range stats {
			lay.submitMs = append(lay.submitMs, s.submitMs...)
			lay.registerMs = append(lay.registerMs, s.registerMs...)
			lay.queuedMs = append(lay.queuedMs, s.queuedMs...)
			lay.runMs = append(lay.runMs, s.runMs...)
			lay.polls += s.polls
			lay.refused += s.refused
		}
	}
	return out, nil
}

// do runs one op: the optional write, then submit and poll to completion.
func (w *electdMixed) do(es *electdServer, c, i int, cs *clientStats) (rec, error) {
	op := w.ops[c][i]
	if op.writeN > 0 {
		name := fmt.Sprintf("new-%d-%d-%d", w.passNo, c, i)
		t0 := time.Now()
		if err := es.register(name, serve.GraphSpec{Family: "rr", N: op.writeN, D: 8, Seed: op.writeSeed}); err != nil {
			return rec{}, err
		}
		cs.registerMs = append(cs.registerMs, ms(time.Since(t0)))
		if err := es.get("/v1/graphs/"+name, nil); err != nil {
			return rec{}, err
		}
	}
	var sub serve.SubmitResponse
	t0 := time.Now()
	code, err := es.post("/v1/elections", op.req, &sub)
	if err != nil {
		return rec{}, err
	}
	cs.submitMs = append(cs.submitMs, ms(time.Since(t0)))
	if code != http.StatusAccepted {
		// A refusal (429 queue full, 503 draining) is a failed op.
		cs.refused++
		return rec{failed: true}, nil
	}
	w.mu.Lock()
	w.lastJob = sub.Location
	w.mu.Unlock()
	for {
		var st serve.JobStatus
		cs.polls++
		if err := es.get(sub.Location, &st); err != nil {
			return rec{}, err
		}
		switch st.State {
		case serve.StateFailed:
			return rec{failed: true}, nil
		case serve.StateDone:
			if st.Timing != nil {
				cs.queuedMs = append(cs.queuedMs, st.Timing.QueuedMs)
				cs.runMs = append(cs.runMs, st.Timing.RunMs)
			}
			return w.judge(op.req, st.Result)
		}
		time.Sleep(pollDelay(time.Since(t0)))
	}
}

// probe measures the process CPU time of one poll, client and server
// side, by repeating the status GET of the last job of the traced passes
// (a finished job: its status carries the full result). serve.poll_cpu_share
// is the measured polls' estimated share of the traced passes' CPU time.
func (w *electdMixed) probe(lay *layers) error {
	if w.tsrv == nil || w.lastJob == "" {
		return nil
	}
	var n int64
	cpu0, t0 := cpuTime(), time.Now()
	for time.Since(t0) < probeMinDur {
		var st serve.JobStatus
		if err := w.tsrv.get(w.lastJob, &st); err != nil {
			return err
		}
		n++
	}
	lay.pollCPU = (cpuTime() - cpu0) / time.Duration(n)
	return nil
}

// judge turns a finished job into a record; two leaders in any trial is
// a check error.
func (w *electdMixed) judge(req serve.SubmitRequest, res *serve.JobResult) (rec, error) {
	if res == nil || len(res.Points) != len(req.Points) {
		return rec{}, checkf("electd job returned %v points for %d", res, len(req.Points))
	}
	r := rec{}
	for _, p := range res.Points {
		if p.Multi > 0 {
			return rec{}, checkf("electd job on %s (%s): %d trials with several leaders", p.Graph, p.Algorithm, p.Multi)
		}
		r.msgs += p.Messages
		r.rounds += p.Rounds
		r.failed = r.failed || p.One != p.Trials
	}
	w.mu.Lock()
	w.results[reqKey(req)] = res
	w.mu.Unlock()
	return r, nil
}

func reqKey(req serve.SubmitRequest) string {
	b, _ := json.Marshal(req) // plain structs: cannot fail
	return string(b)
}

// check replays every distinct job in process under electd's seed
// contract (point i of a job runs trials from SeedForKey(job seed,
// "electd|i|<point key>")) and requires the server's result.
func (w *electdMixed) check() error {
	for c := range w.ops {
		for _, op := range w.ops[c] {
			got := w.results[reqKey(op.req)]
			if got == nil {
				continue // refused or failed every time
			}
			for i, p := range op.req.Points {
				spec := w.reg[p.Graph]
				g, err := spec.Build()
				if err != nil {
					return err
				}
				cfg := core.DefaultConfig()
				cfg.Resend, cfg.AssumedN = p.Resend, p.AssumedN
				a, err := algo.New(algo.Resolve(p.Algorithm), algo.Config{Core: cfg})
				if err != nil {
					return err
				}
				b, err := algo.RunMany(g, a, algo.BatchOptions{
					Base:   algo.Options{Seed: sim.SeedForKey(op.req.Seed, fmt.Sprintf("electd|%d|%s", i, p.Key())), LeanMetrics: true},
					Trials: p.Trials, Workers: 1,
				})
				if err != nil {
					return fmt.Errorf("in-process replay: %w", err)
				}
				q := got.Points[i]
				if q.One != b.One || q.Zero != b.Zero || q.Multi != b.Multi || q.Messages != b.Messages ||
					q.Bits != b.Bits || q.Rounds != b.Rounds || q.Contenders != b.Contenders {
					return checkf("electd job %s point %d differs from its in-process run: %+v vs %+v", reqKey(op.req), i, q, *b)
				}
			}
		}
	}
	return nil
}

func (w *electdMixed) close() {
	for _, es := range []*electdServer{w.srv, w.tsrv} {
		if es != nil {
			es.close()
		}
	}
}
