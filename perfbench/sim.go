package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wcle"
	"wcle/internal/algo"
	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/serve"
	"wcle/internal/sim"
	"wcle/internal/spectral"
)

// Every workload visits a fixed list of inputs: the per-input cost of an
// election varies 1.5-4.5x (and up to 10x) with its seed under
// guess-and-double, so lists drawn per run would make msgs_per_op and the
// op times differ between runs by more than any gate could tolerate. The
// list is a pure function of the workload; the run's --seed sets the
// order in which a pass visits it (see rotation).
const listSeed = 0x5EED11

// inputSeed is the seed of input i of a workload's fixed list.
func inputSeed(workload string, i int) int64 {
	return sim.DeriveSeed(sim.SeedForKey(listSeed, workload), uint64(i))
}

// rotation is the list index a pass starts at for a run seed.
func rotation(seed int64, k int) int {
	return int(uint64(sim.DeriveSeed(seed, 0xA0)) % uint64(k))
}

// buildGraph builds a random 8-regular graph from a serve.GraphSpec (the
// form the cluster and electd build graphs from) and times it.
func buildGraph(n int, seed int64, st *setupStats) (serve.GraphSpec, *graph.Graph, error) {
	spec := serve.GraphSpec{Family: "rr", N: n, D: 8, Seed: seed}
	t0 := time.Now()
	g, err := spec.Build()
	st.buildMs = append(st.buildMs, ms(time.Since(t0)))
	return spec, g, err
}

// profileGraph computes the spectral profile of a workload graph, which
// states the input's mixing time (the paper's costs scale with it), and
// times it.
func profileGraph(g *graph.Graph, st *setupStats) (*spectral.Profile, error) {
	t0 := time.Now()
	p, err := spectral.ComputeProfile(g, spectral.ProfileOptions{})
	st.profileMs = append(st.profileMs, ms(time.Since(t0)))
	return p, err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// simOp is one in-process run of a protocol instance.
type simOp struct {
	p engine.Protocol
	// cfg is the configuration p was built from.
	cfg  engine.Config
	g    *graph.Graph
	opts engine.Options
	// core marks gilbertrs18 nodes: their Step time is the core layer's.
	core bool
	// noSpans keeps a traced run's tracer off, for replays whose spans
	// the workload already records elsewhere.
	noSpans bool
}

// run executes the op through engine.RunInstance. On a traced run it
// times every node Step, attaches the span sink and the message tap, and
// folds the run's accounting into lay. obs, when set, taps sends on an
// untraced run: the measured ops pass a refTap, which takes reference
// samples inside the op.
func (o simOp) run(lay *layers, obs sim.Observer) (*engine.Result, error) {
	inst, err := o.p.Init(o.g)
	if err != nil {
		return nil, err
	}
	opts := o.opts
	opts.Observer = obs
	run := inst
	if lay != nil {
		acc := &lay.engineStep
		if o.core {
			acc = &lay.coreStep
		}
		run = wrapInstance(inst, acc)
		opts.Observer = lay.tap
		if !o.noSpans {
			opts.Tracer = lay.tracer()
		}
	}
	t0 := time.Now()
	res, err := engine.RunInstance(o.p, o.g, run, opts)
	if lay != nil {
		lay.runNs += int64(time.Since(t0))
		if res != nil {
			lay.addMetrics(res.Metrics)
		}
	}
	return res, err
}

// leaders counts the nodes whose election output (slot 0) claims
// leadership, skipping the nodes in skip.
func leaders(res *engine.Result, skip func(v int) bool) int {
	k := 0
	for v, o := range res.Outputs {
		if o[0] == 1 && (skip == nil || !skip(v)) {
			k++
		}
	}
	return k
}

// informed reports whether every node not in skip holds the rumor.
func informed(res *engine.Result, rumor int64, skip func(v int) bool) bool {
	for v, o := range res.Outputs {
		if (skip == nil || !skip(v)) && (o[0] != 1 || o[2] != rumor) {
			return false
		}
	}
	return true
}

// timeOp runs the ops of a pass in rotated order and stores each record at
// its list index, with the op's wall time and the process CPU time spent
// while it ran, less the reference samples taken inside it. Each op
// starts on a freshly collected heap, so it does not pay for the garbage
// of the op before it: without this, one op that allocates heavily
// (sim-adversary's amplified run) spreads collection work over whichever
// small ops follow it. The forced collection itself falls outside both
// times.
func timeOp(k, rot int, lay *layers, between func(), op func(i int) (rec, error)) ([]rec, error) {
	recs := make([]rec, k)
	for j := 0; j < k; j++ {
		i := (rot + j) % k
		between()
		runtime.GC()
		inCPU, inWall := refs.inOpCPU, refs.inOpWall
		cpu0, t0 := cpuTime(), time.Now()
		r, err := op(i)
		end := time.Now()
		cpu := cpuTime() - cpu0 - (refs.inOpCPU - inCPU)
		d := end.Sub(t0) - (refs.inOpWall - inWall)
		if err != nil {
			return nil, err
		}
		r.ms, r.cpu, r.at, r.end = ms(d), cpu, t0, end
		if lay != nil {
			lay.ops++
			lay.opNs += int64(d)
		}
		recs[i] = r
	}
	return recs, nil
}

// simList is a sequential workload over a fixed list of sim ops.
type simList struct {
	ops  []simOp
	rot  int
	last []rec
	// judge turns a finished run into a record, or a check error.
	judge func(i int, res *engine.Result) (rec, error)
	// probes run once after the traced passes.
	probes func(lay *layers) error
}

func (w *simList) pass(lay *layers, between func()) ([]rec, error) {
	recs, err := timeOp(len(w.ops), w.rot, lay, between, func(i int) (rec, error) {
		res, err := w.ops[i].run(lay, &refTap{})
		if err != nil {
			return rec{}, fmt.Errorf("input %d: %w", i, err)
		}
		return w.judge(i, res)
	})
	w.last = recs
	return recs, err
}

func (w *simList) probe(lay *layers) error { return w.probes(lay) }

// check replays every input through the public facade, wcle.Run, and
// requires the message and round counts the benchmark reported for it.
func (w *simList) check() error {
	return forEachInput(len(w.ops), func(i int) error {
		o := w.ops[i]
		rep, err := wcle.Run(o.p.Name(), o.g, o.cfg, algo.Options{Seed: o.opts.Seed})
		if err != nil {
			return fmt.Errorf("wcle.Run replay of input %d: %w", i, err)
		}
		if rep.Result.Metrics.Messages != w.last[i].msgs || int64(rep.Result.Rounds) != w.last[i].rounds {
			return checkf("input %d: wcle.Run reports %d msgs / %d rounds, benchmark %d / %d", i,
				rep.Result.Metrics.Messages, rep.Result.Rounds, w.last[i].msgs, w.last[i].rounds)
		}
		return nil
	})
}

// checkWorkers is how many reference replays run at once. The checks run
// after the measurement, so they may use both vCPUs.
const checkWorkers = 2

// forEachInput calls f for inputs 0..k-1 on checkWorkers goroutines and
// returns the error of the lowest failing input.
func forEachInput(k int, f func(i int) error) error {
	errs := make([]error, k)
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < checkWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < k; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return firstErr(errs)
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *simList) close() {}

// simElectInputs is the sim-elect list length: 8 gilbertrs18 elections on
// rr8 n=128, about 4 s per pass on a 2-vCPU box.
const simElectInputs = 8

func setupSimElect(seed int64, st *setupStats) (workload, error) {
	_, g, err := buildGraph(128, inputSeed("sim-elect/graph", 0), st)
	if err != nil {
		return nil, err
	}
	if _, err := profileGraph(g, st); err != nil {
		return nil, err
	}
	p, err := engine.New(algo.GilbertRS18, engine.Config{})
	if err != nil {
		return nil, err
	}
	w := &simList{rot: rotation(seed, simElectInputs)}
	for i := 0; i < simElectInputs; i++ {
		w.ops = append(w.ops, simOp{p: p, g: g, opts: engine.Options{Seed: inputSeed("sim-elect", i)}, core: true})
	}
	w.judge = func(i int, res *engine.Result) (rec, error) {
		k := leaders(res, nil)
		if k > 1 {
			return rec{}, checkf("sim-elect input %d: %d leaders", i, k)
		}
		return rec{msgs: res.Metrics.Messages, rounds: int64(res.Rounds), failed: k == 0}, nil
	}
	w.probes = func(lay *layers) error {
		lay.probeIDSets(g.N())
		return lay.probeCodec()
	}
	return w, nil
}

// simGossipInputs is the sim-gossip list length: 6 push-pull runs on rr8
// n=1024 at the default horizon, about 3 s per pass.
const simGossipInputs = 6

func setupSimGossip(seed int64, st *setupStats) (workload, error) {
	_, g, err := buildGraph(1024, inputSeed("sim-gossip/graph", 0), st)
	if err != nil {
		return nil, err
	}
	if _, err := profileGraph(g, st); err != nil {
		return nil, err
	}
	w := &simList{rot: rotation(seed, simGossipInputs)}
	for i := 0; i < simGossipInputs; i++ {
		// Each input starts the rumor at another node.
		cfg := engine.Config{Source: i * g.N() / simGossipInputs}
		p, err := engine.New(engine.PushPull, cfg)
		if err != nil {
			return nil, err
		}
		w.ops = append(w.ops, simOp{p: p, cfg: cfg, g: g, opts: engine.Options{Seed: inputSeed("sim-gossip", i)}})
	}
	w.judge = func(i int, res *engine.Result) (rec, error) {
		return rec{msgs: res.Metrics.Messages, rounds: int64(res.Rounds), failed: !informed(res, 1, nil)}, nil
	}
	w.probes = func(lay *layers) error { return lay.probeCodec() }
	return w, nil
}

// The sim-adversary gauntlet: an E23-shaped cross of three backends with
// four adversaries on rr8 n=32.
var (
	advBackends  = []string{algo.GilbertRS18, algo.KPPRT, engine.PushPull}
	advScenarios = []string{"drop5", "crash20", "byz15", "byz15+defend"}
)

// advRoundCap is the one round cap of every sim-adversary run. Most
// fault-free gilbertrs18 elections on rr8 n=32 finish at the 21084-round
// phase boundary of guess-and-double, so a lower cap would abort honest
// runs. A run that forged fields amplify (ROADMAP item 1) keeps flooding
// at ~0.33 ms per round until the cap, so a higher cap makes each such run
// cost seconds more and the workload too slow to repeat.
const advRoundCap = 24000

// advSeeds is how many seeds the gauntlet crosses (12 runs per seed).
const advSeeds = 5

// advRumor is pushpull's ground truth: only this rumor id counts.
const advRumor = 7

// advInput is one gauntlet cell at one seed.
type advInput struct {
	backend, scenario string
	g                 *graph.Graph
	seed              int64
	p                 engine.Protocol
}

// byzantine reports whether the input's adversary forges messages (as
// opposed to dropping them or crashing nodes).
func (in advInput) byzantine() bool { return in.scenario == "byz15" || in.scenario == "byz15+defend" }

func (in advInput) plane() sim.FaultPlane {
	switch in.scenario {
	case "drop5":
		return &sim.Drop{P: 0.05}
	case "crash20":
		return &sim.CrashSample{Frac: 0.20, Round: 2}
	default:
		return &sim.Byzantine{Frac: 0.15}
	}
}

// advConfig follows E23: pushpull's horizon is stretched under the
// defense, whose claim copies make one logical hop cost several rounds.
func advConfig(backend string, n int, defend bool) engine.Config {
	cfg := engine.Config{Defend: defend}
	if backend == engine.PushPull {
		cfg.Rumor = advRumor
		cfg.Horizon = 8 * n
		if defend {
			cfg.Horizon = 30 * n
		}
	}
	return cfg
}

type simAdversary struct {
	inputs []advInput
	rot    int
	// last holds each input's record of the latest pass, and completed
	// marks the inputs whose run ended without an error or a cap abort.
	last      []rec
	completed []bool
	// twinMsgs caches the fault-free twin's messages per input.
	twinMsgs map[int]int64
}

func setupSimAdversary(seed int64, st *setupStats) (workload, error) {
	k := advSeeds * len(advBackends) * len(advScenarios)
	w := &simAdversary{rot: rotation(seed, k), twinMsgs: map[int]int64{}, completed: make([]bool, k)}
	for s := 0; s < advSeeds; s++ {
		_, g, err := buildGraph(32, inputSeed("sim-adversary/graph", s), st)
		if err != nil {
			return nil, err
		}
		if _, err := profileGraph(g, st); err != nil {
			return nil, err
		}
		for _, b := range advBackends {
			for _, sc := range advScenarios {
				defend := sc == "byz15+defend"
				p, err := engine.New(b, advConfig(b, g.N(), defend))
				if err != nil {
					return nil, err
				}
				w.inputs = append(w.inputs, advInput{backend: b, scenario: sc, g: g, seed: inputSeed("sim-adversary", s), p: p})
			}
		}
	}
	return w, nil
}

func (w *simAdversary) pass(lay *layers, between func()) ([]rec, error) {
	recs, err := timeOp(len(w.inputs), w.rot, lay, between, func(i int) (rec, error) {
		in := w.inputs[i]
		plane := in.plane()
		op := simOp{p: in.p, g: in.g, core: in.scenario != "byz15+defend" && in.backend == algo.GilbertRS18,
			opts: engine.Options{Seed: in.seed, MaxRounds: advRoundCap, Fault: plane}}
		cnt := &refTap{}
		var sends0 int64
		if lay != nil {
			sends0 = lay.tap.sends
		}
		res, err := op.run(lay, cnt)
		msgs := cnt.n
		if lay != nil {
			msgs = lay.tap.sends - sends0
		}
		r := rec{msgs: msgs, failed: true}
		w.completed[i] = false
		switch {
		case errors.Is(err, sim.ErrMaxRounds):
			r.rounds = advRoundCap
			if lay != nil {
				if in.byzantine() {
					lay.capAborts++
				} else {
					lay.omissionCapAborts++
				}
			}
		case err != nil:
			// A forged payload a protocol rejects aborts the run
			// detectably: a failure, not a check error.
		default:
			r.rounds = int64(res.Rounds)
			r.failed = !advCorrect(in, res, plane)
			w.completed[i] = true
		}
		return r, nil
	})
	w.last = recs
	if err == nil && lay != nil {
		for i, r := range recs {
			w.traceAdversary(i, lay, r.msgs)
		}
	}
	return recs, err
}

// advCorrect judges a finished gauntlet run on the honest, live nodes:
// elections must name exactly one honest leader, pushpull must deliver the
// authentic rumor. Under faults a split electorate is a legitimate
// failure (the fault-conformance battery's contract), not a check error.
func advCorrect(in advInput, res *engine.Result, plane sim.FaultPlane) bool {
	skip := func(v int) bool {
		switch p := plane.(type) {
		case *sim.Byzantine:
			return p.IsAdversary(v)
		case *sim.CrashSample:
			return p.Crashed(v, res.Rounds+1)
		}
		return false
	}
	if in.backend == engine.PushPull {
		return informed(res, advRumor, skip)
	}
	return leaders(res, skip) == 1
}

// traceAdversary records a Byzantine run's amplification over its
// same-seed fault-free twin, and the defended/undefended message totals.
// Twins run once, after the ops of the first traced pass.
func (w *simAdversary) traceAdversary(i int, lay *layers, msgs int64) {
	in := w.inputs[i]
	switch in.scenario {
	case "byz15":
		lay.undefendMsgs += msgs
	case "byz15+defend":
		lay.defendMsgs += msgs
	default:
		return
	}
	twin, ok := w.twinMsgs[i]
	if !ok {
		t0 := time.Now()
		cnt := &counter{}
		// The twin's own outcome does not matter, only its send count
		// up to the same cap.
		_, _ = simOp{p: in.p, g: in.g, opts: engine.Options{Seed: in.seed, MaxRounds: advRoundCap}}.run(nil, cnt)
		twin = cnt.n
		w.twinMsgs[i] = twin
		lay.extra += time.Since(t0)
	}
	if twin > 0 {
		lay.amplification = append(lay.amplification, float64(msgs)/float64(twin))
	}
}

func (w *simAdversary) probe(lay *layers) error { return lay.probeCodec() }

// check replays every input whose run completed through engine.Run under
// a fresh copy of the same fault plane and requires the messages (counted
// by the benchmark's observer) and rounds the benchmark reported. Runs
// that hit the cap are not replayed: each costs seconds, and the
// between-pass check already requires them to repeat exactly.
func (w *simAdversary) check() error {
	return forEachInput(len(w.inputs), func(i int) error {
		if !w.completed[i] {
			return nil
		}
		in := w.inputs[i]
		res, err := engine.Run(in.p, in.g, engine.Options{Seed: in.seed, MaxRounds: advRoundCap, Fault: in.plane()})
		if err != nil {
			return fmt.Errorf("engine.Run replay of sim-adversary input %d: %w", i, err)
		}
		if res.Metrics.Messages != w.last[i].msgs || int64(res.Rounds) != w.last[i].rounds {
			return checkf("sim-adversary input %d (%s, %s): engine.Run reports %d msgs / %d rounds, benchmark %d / %d",
				i, in.backend, in.scenario, res.Metrics.Messages, res.Rounds, w.last[i].msgs, w.last[i].rounds)
		}
		return nil
	})
}

func (w *simAdversary) close() {}
