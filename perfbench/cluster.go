package main

import (
	"fmt"
	"slices"
	"time"

	"wcle/internal/algo"
	"wcle/internal/cluster"
	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
)

// clusterShards is the loopback cluster size: one shard per vCPU.
const clusterShards = 2

// clusterInputs is the cluster-tcp list length: jobs alternate gilbertrs18
// and kpprt on rr8 n=64, about 1.5 s per pass.
const clusterInputs = 12

type clusterTCP struct {
	g      *graph.Graph
	jobs   []cluster.JobSpec
	rot    int
	local  *cluster.Local
	traced *cluster.Local // started on the first traced pass
	// last holds each input's merged result of the latest pass.
	last []*cluster.Result
}

func setupClusterTCP(seed int64, st *setupStats) (workload, error) {
	spec, g, err := buildGraph(64, inputSeed("cluster-tcp/graph", 0), st)
	if err != nil {
		return nil, err
	}
	if _, err := profileGraph(g, st); err != nil {
		return nil, err
	}
	w := &clusterTCP{g: g, rot: rotation(seed, clusterInputs), last: make([]*cluster.Result, clusterInputs)}
	for i := 0; i < clusterInputs; i++ {
		alg := algo.GilbertRS18
		if i%2 == 1 {
			alg = algo.KPPRT
		}
		w.jobs = append(w.jobs, cluster.JobSpec{Graph: spec, Algorithm: alg, Seed: inputSeed("cluster-tcp", i)})
	}
	if w.local, err = startCluster(cluster.LocalOptions{}); err != nil {
		return nil, err
	}
	return w, nil
}

// startCluster starts a loopback cluster and runs one small job on it, so
// the shards have joined before anything is timed.
func startCluster(opt cluster.LocalOptions) (*cluster.Local, error) {
	l, err := cluster.StartLocalWith(clusterShards, opt)
	if err != nil {
		return nil, err
	}
	warm := cluster.JobSpec{Graph: serve.GraphSpec{Family: "rr", N: 16, D: 4, Seed: 1}, Algorithm: algo.KPPRT, Seed: 1}
	if _, err := l.Elect(warm); err != nil {
		l.Close()
		return nil, fmt.Errorf("cluster warm-up job: %w", err)
	}
	return l, nil
}

func (w *clusterTCP) pass(lay *layers, between func()) ([]rec, error) {
	l := w.local
	if lay != nil {
		if w.traced == nil {
			t0 := time.Now()
			var err error
			if w.traced, err = startCluster(cluster.LocalOptions{TraceSink: lay.spans}); err != nil {
				return nil, err
			}
			lay.extra += time.Since(t0)
		}
		l = w.traced
	}
	recs, err := timeOp(len(w.jobs), w.rot, lay, between, func(i int) (rec, error) {
		t0 := time.Now()
		res, err := l.Elect(w.jobs[i])
		jobNs := int64(time.Since(t0))
		if err != nil {
			return rec{}, fmt.Errorf("cluster job %d: %w", i, err)
		}
		w.last[i] = res
		k := len(res.Outcome.Leaders)
		if k > 1 {
			return rec{}, checkf("cluster-tcp input %d: %d leaders", i, k)
		}
		if lay != nil {
			lay.clusterJobNs += jobNs
			lay.envelopes += res.Wire.Envelopes
			lay.frames += res.Wire.Frames
			lay.wireBytes += res.Wire.Bytes
			lay.barriers += res.Wire.Barriers
			lay.shards = int64(res.Shards)
		}
		return rec{msgs: res.Outcome.Metrics.Messages, rounds: int64(res.Outcome.Rounds), failed: k == 0}, nil
	})
	if err == nil && lay != nil {
		for i := range w.jobs {
			if err := w.traceReplay(i, lay); err != nil {
				return nil, err
			}
		}
	}
	return recs, err
}

// backend is the algorithm a job runs, configured as the cluster's job
// layer configures it from a JobSpec with no knobs set.
func backend(name string) (algo.Algorithm, error) {
	cfg := core.DefaultConfig()
	cfg.Resend, cfg.AssumedN = 0, 0
	return algo.New(name, algo.Config{Core: cfg})
}

// traceReplay runs job i in process twice, after the pass's jobs: once
// plainly, timed, for cluster.overhead_share; once with every Step timed
// and the message tap attached, for the core/sim/protocol layers and the
// codec probe (the keystone invariant makes these the job's messages).
// The shards' own spans already reach the sink, so the replay records none.
func (w *clusterTCP) traceReplay(i int, lay *layers) error {
	t0 := time.Now()
	job := w.jobs[i]
	a, err := backend(job.Algorithm)
	if err != nil {
		return err
	}
	t1 := time.Now()
	if _, err := a.Run(w.g, algo.Options{Seed: job.Seed}); err != nil {
		return err
	}
	lay.clusterReplayNs += int64(time.Since(t1))
	p := algo.Protocol(a)
	if p == nil {
		return fmt.Errorf("%s is not an engine protocol", job.Algorithm)
	}
	op := simOp{p: p, g: w.g, opts: engine.Options{Seed: job.Seed}, core: job.Algorithm == algo.GilbertRS18, noSpans: true}
	if _, err := op.run(lay, nil); err != nil {
		return err
	}
	lay.extra += time.Since(t0)
	return nil
}

// check replays every job in process with the same JobSpec inputs and
// requires the cluster's leaders and per-node message counts.
func (w *clusterTCP) check() error {
	for i, job := range w.jobs {
		a, err := backend(job.Algorithm)
		if err != nil {
			return err
		}
		out, eres, err := algo.RunWithReport(a, w.g, algo.Options{Seed: job.Seed})
		if err != nil {
			return fmt.Errorf("in-process replay of job %d: %w", i, err)
		}
		res := w.last[i]
		if !slices.Equal(out.Leaders, res.Outcome.Leaders) || !slices.Equal(eres.PerNodeMessages, res.PerNodeMessages) {
			return checkf("cluster-tcp job %d differs from its in-process replay: leaders %v vs %v", i, res.Outcome.Leaders, out.Leaders)
		}
		if out.Metrics.Messages != res.Outcome.Metrics.Messages || out.Rounds != res.Outcome.Rounds {
			return checkf("cluster-tcp job %d: %d msgs / %d rounds vs in-process %d / %d", i,
				res.Outcome.Metrics.Messages, res.Outcome.Rounds, out.Metrics.Messages, out.Rounds)
		}
	}
	return nil
}

// wireBytesPerOp is the mean wire traffic of one job (all shards, frame
// headers and barrier control included).
func (w *clusterTCP) wireBytesPerOp() float64 {
	var b int64
	for _, r := range w.last {
		b += r.Wire.Bytes
	}
	return float64(b) / float64(len(w.last))
}

func (w *clusterTCP) probe(lay *layers) error {
	lay.probeIDSets(w.g.N())
	return lay.probeCodec()
}

func (w *clusterTCP) close() {
	for _, l := range []*cluster.Local{w.local, w.traced} {
		if l != nil {
			l.Close()
		}
	}
}
