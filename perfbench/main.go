// Command perfbench is the repository benchmark: five closed-loop
// workloads over the in-process sim, the loopback TCP cluster, the
// adversary planes and the electd service, each checked for correct
// outputs. An untraced run (-trace 0) reports the end-to-end metrics; a
// traced run (-trace 1) instruments the same inputs from outside the
// program and reports the per-layer metrics. See README.md for the
// workload rationale and the layer-to-metric map.
//
// Usage (from the perfbench directory, or via run.py from the repo root):
//
//	go run . --workload sim-elect --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workload is one benchmark workload after set-up. pass runs every input
// of the workload's fixed list once, in list order, and returns one record
// per input in that order; lay is nil on an untraced pass and collects the
// per-layer counters on a traced one; between is called before each op
// (each lockstep step on electd-mixed), outside its measured time. check
// replays every distinct input through the reference path and fails on
// any disagreement.
type workload interface {
	pass(lay *layers, between func()) ([]rec, error)
	check() error
	close()
}

// rec is the outcome of one op (one election, gossip run, cluster job or
// electd job).
type rec struct {
	ms float64
	// cpu is the process CPU time spent while the op ran (see timeOp).
	cpu time.Duration
	// at and end are when the op started and ended; ms and cpu leave out
	// the reference samples taken in between.
	at, end time.Time
	msgs    int64
	rounds  int64
	// failed marks an op that yielded no correct result: an error, a
	// round-cap abort, an HTTP refusal, no leader, or not everyone
	// informed. Safety violations are not failures but check errors.
	failed bool
}

// spec describes a workload: its name and its set-up.
type spec struct {
	name string
	// sequential marks a workload whose ops run on one goroutine. Its
	// set-ups and passes run with GOMAXPROCS=1, so the collector works on
	// the vCPU the ops and the reference kernel run on: with a second P,
	// the collector's idle workers run on the other vCPU, whose speed
	// drifts apart from the first: over four interleaved pairs of
	// sim-elect runs, cpu_ref_per_op ranged over 5% of its median with one
	// P and over 14% with two.
	sequential bool
	// setup builds the workload's inputs and runtime. st collects the
	// graph-build and spectral-profile timings of the set-up.
	setup func(seed int64, st *setupStats) (workload, error)
}

var specs = []spec{
	{"sim-elect", true, setupSimElect},
	{"sim-gossip", true, setupSimGossip},
	{"cluster-tcp", false, setupClusterTCP},
	{"sim-adversary", true, setupSimAdversary},
	{"electd-mixed", false, setupElectdMixed},
}

// setupSamples is how many throwaway set-ups a run spreads evenly over its
// measurement, between ops. setup_s is the median CPU time of these and
// of the first set-up, the one the run keeps. A set-up takes milliseconds,
// and the speed of a shared VM drifts by tens of percent over seconds, so
// set-ups made back to back all see one state of the drift; spread over
// the run, they sample it as the measured ops do.
const setupSamples = 16

// setupSampler sets the workload up and times each set-up.
type setupSampler struct {
	sp    spec
	seed  int64
	st    *setupStats
	every time.Duration
	next  time.Time
	// cpu and wall are the set-ups' process CPU and wall times in
	// seconds. CPU time counts all threads: cluster shards and server
	// goroutines too.
	cpu, wall []float64
	// spent is the wall time of the throwaway set-ups, closes included,
	// and allocBytes the heap bytes they allocated.
	spent      time.Duration
	allocBytes uint64
	err        error
}

// setUp sets the workload up once, on a freshly collected heap, and
// records the set-up's times.
func (s *setupSampler) setUp() (workload, error) {
	debug.FreeOSMemory()
	cpu0, t0 := cpuTime(), time.Now()
	w, err := s.sp.setup(s.seed, s.st)
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", s.sp.name, err)
	}
	s.cpu = append(s.cpu, cpu.Seconds())
	s.wall = append(s.wall, wall.Seconds())
	fmt.Fprintf(os.Stderr, "set-up %d: %.6f s cpu, %.6f s wall\n", len(s.cpu), cpu.Seconds(), wall.Seconds())
	return w, nil
}

// between makes a throwaway set-up, and closes it, when one is due.
func (s *setupSampler) between() {
	if s.err != nil || time.Now().Before(s.next) {
		return
	}
	var ms0, ms1 runtime.MemStats
	t0 := time.Now()
	runtime.ReadMemStats(&ms0)
	w, err := s.setUp()
	if err != nil {
		s.err = err
		return
	}
	w.close()
	runtime.ReadMemStats(&ms1)
	s.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	s.spent += time.Since(t0)
	s.next = time.Now().Add(s.every)
}

// checkf reports an output-check violation; the run exits non-zero.
func checkf(format string, args ...any) error {
	return fmt.Errorf("output check failed: %s", fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload name ("+names()+")")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *name {
			sp = &specs[i]
		}
	}
	if sp == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	initRefKernel()
	out, err := run(*sp, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if out != nil {
		out.Correct = err == nil
		line, jerr := json.Marshal(out)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func names() string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return strings.Join(ns, ", ")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run sets the workload up, measures it and checks its outputs. A nil
// result means nothing was measured; a non-nil result with an error means
// an output check failed.
func run(sp spec, seed int64, budget time.Duration, traced bool) (*result, error) {
	st := &setupStats{}
	procs := runtime.GOMAXPROCS(0)
	if sp.sequential {
		runtime.GOMAXPROCS(1)
	}
	// setup_s is a set-up's process CPU time, not its wall time, which
	// also counts the time the process waited for a vCPU.
	ss := &setupSampler{sp: sp, seed: seed, st: st, every: budget / setupSamples}
	w, err := ss.setUp()
	if err != nil {
		return nil, err
	}
	defer w.close()
	ss.next = time.Now().Add(ss.every)
	// The output checks come after the measurement and replay on
	// checkWorkers goroutines.
	check := func() error {
		runtime.GOMAXPROCS(procs)
		return w.check()
	}

	if !traced {
		// The throwaway set-ups and the reference samples allocate too:
		// alloc_mb_per_op counts the ops' allocations only.
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		m, err := measure(w, nil, budget, ss)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return nil, err
		}
		res := &result{Attempted: m.attempted(), Failed: m.failed(), Metrics: map[string]metric{}}
		e2e := m.endToEnd(median(ss.cpu), median(ss.wall), float64(ms1.TotalAlloc-ms0.TotalAlloc-ss.allocBytes-refs.allocBytes))
		if wb, ok := w.(interface{ wireBytesPerOp() float64 }); ok {
			e2e = append(e2e, named{"wire_bytes_per_op", wb.wireBytesPerOp(), "B"})
		}
		printTable(sp.name, "end-to-end (untraced)", m.samples(), e2e)
		for _, x := range e2e {
			if gated[x.name] {
				res.Metrics[x.name] = metric{x.value, x.unit}
			}
		}
		return res, check()
	}

	// Traced run: half the budget untraced, half traced, over the same
	// inputs; the two must agree exactly on every op's cost and outcome.
	// Both halves make throwaway set-ups between ops alike, which gives
	// spectral.profile_ms and graph.build_ms their samples.
	plain, err := measure(w, nil, budget/2, ss)
	if err != nil {
		return nil, err
	}
	lay := newLayers()
	tracedM, err := measure(w, lay, budget/2, ss)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: plain.attempted() + tracedM.attempted(), Failed: plain.failed() + tracedM.failed(), Metrics: map[string]metric{}}
	if err := sameOutcomes(plain, tracedM); err != nil {
		return res, err
	}
	if p, ok := w.(interface{ probe(*layers) error }); ok {
		if err := p.probe(lay); err != nil {
			return res, err
		}
	}
	pl := lay.finish(st, plain, tracedM)
	printTable(sp.name, "per-layer (traced)", tracedM.samples(), pl)
	for _, x := range pl {
		res.Metrics[x.name] = metric{x.value, x.unit}
	}
	return res, check()
}

// gated lists the end-to-end metrics BENCHMARK.json gates. The others are
// printed in the table only: on a shared 2-vCPU VM the wall-clock metrics
// (ops_per_s, op_ms_p50, op_ms_p90, setup_wall_s) drift by 25-90% between
// runs minutes apart, as the hypervisor's steal time comes and goes. CPU
// time leaves out the time the process waited for a vCPU, but not the
// slowdown other tenants cause while it runs: cpu_ms_per_op still spread
// by 25-30% of its median over ten runs, so the gate is on cpu_ref_per_op,
// the same CPU time in units of the reference kernel (see ref.go).
// fail_frac is 0 on most workloads; wire_bytes_per_op exists only on
// cluster-tcp.
var gated = map[string]bool{
	"setup_s": true, "cpu_ref_per_op": true, "msgs_per_op": true,
	"rounds_per_op": true, "alloc_mb_per_op": true,
}

// named is one printed metric.
type named struct {
	name  string
	value float64
	unit  string
}

// measurement holds the passes of one measurement.
type measurement struct {
	passes [][]rec
	walls  []time.Duration
	// cpu is the process CPU time (user + system, all threads) of each
	// pass's ops, the sum of their rec.cpu. Unlike wall time it leaves out
	// time the process waited for a vCPU, and it leaves out the work
	// between ops (forced collections, throwaway set-ups, reference
	// samples, twin runs, replays).
	cpu []time.Duration
	// norm is each pass's sum over its ops of the op's CPU time in units
	// of the reference kernel's (refSampler.normalize).
	norm []float64
	// extra is time a pass spent outside the ops (throwaway set-ups,
	// reference samples, and on a traced pass twin runs and replays),
	// subtracted from its wall for the throughput.
	extra []time.Duration
}

// cpuTime returns the process's CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs whole passes (at least one) while another pass is expected
// to end before the budget is overspent by more than half a pass; the
// throwaway set-ups ss makes between ops do not count against the budget,
// the reference samples taken at either end of a pass, between ops and
// inside ops do. It fails if any input's cost or outcome differs between
// passes: every input is a pure function of its seed.
func measure(w workload, lay *layers, budget time.Duration, ss *setupSampler) (*measurement, error) {
	m := &measurement{}
	start, spent0 := time.Now(), ss.spent
	// outside is the time spent so far outside the ops.
	outside := func() time.Duration {
		if lay != nil {
			return ss.spent + refs.spent + lay.extra
		}
		return ss.spent + refs.spent
	}
	between := func() {
		ss.between()
		refs.between()
	}
	for len(m.passes) == 0 || time.Since(start)-(ss.spent-spent0)+(m.walls[len(m.walls)-1]-m.extra[len(m.extra)-1])/2 < budget {
		extra0 := outside()
		t0 := time.Now()
		refs.sample(false)
		recs, err := w.pass(lay, between)
		wall := time.Since(t0)
		if err == nil {
			err = ss.err
		}
		if err != nil {
			return nil, err
		}
		var cpu time.Duration
		for _, r := range recs {
			cpu += r.cpu
		}
		if len(m.passes) > 0 {
			if err := sameRecs(m.passes[0], recs); err != nil {
				return nil, fmt.Errorf("%w (between passes)", err)
			}
		}
		norm := refs.normalize(recs)
		fmt.Fprintf(os.Stderr, "pass %d: %d ops in %.3f s wall, %.3f s op cpu, %.1f ref (traced=%v)\n",
			len(m.passes)+1, len(recs), wall.Seconds(), cpu.Seconds(), norm, lay != nil)
		m.passes = append(m.passes, recs)
		m.walls = append(m.walls, wall)
		m.cpu = append(m.cpu, cpu)
		m.norm = append(m.norm, norm)
		m.extra = append(m.extra, outside()-extra0)
		if lay != nil {
			lay.passes++
		}
	}
	return m, nil
}

func sameRecs(a, b []rec) error {
	if len(a) != len(b) {
		return checkf("op count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].msgs != b[i].msgs || a[i].rounds != b[i].rounds || a[i].failed != b[i].failed {
			return checkf("op %d not reproducible: msgs %d/%d rounds %d/%d failed %v/%v",
				i, a[i].msgs, b[i].msgs, a[i].rounds, b[i].rounds, a[i].failed, b[i].failed)
		}
	}
	return nil
}

// sameOutcomes is the trace-determinism check: the traced run reproduces
// the untraced run's msgs_per_op, rounds_per_op and fail_frac exactly.
func sameOutcomes(plain, traced *measurement) error {
	if err := sameRecs(plain.passes[0], traced.passes[0]); err != nil {
		return fmt.Errorf("%w (traced vs untraced)", err)
	}
	return nil
}

func (m *measurement) attempted() int {
	n := 0
	for _, p := range m.passes {
		n += len(p)
	}
	return n
}

func (m *measurement) failed() int {
	n := 0
	for _, p := range m.passes {
		for _, r := range p {
			if r.failed {
				n++
			}
		}
	}
	return n
}

func (m *measurement) samples() string {
	return fmt.Sprintf("%d passes x %d ops", len(m.passes), len(m.passes[0]))
}

// throughput is the median over passes of ops per second of pass wall
// time (minus any traced extra work).
func (m *measurement) throughput() float64 {
	xs := make([]float64, len(m.passes))
	for i, p := range m.passes {
		xs[i] = float64(len(p)) / (m.walls[i] - m.extra[i]).Seconds()
	}
	return median(xs)
}

// opTimes returns, per input, the median of its op times across passes.
func (m *measurement) opTimes() []float64 {
	k := len(m.passes[0])
	out := make([]float64, k)
	xs := make([]float64, len(m.passes))
	for i := 0; i < k; i++ {
		for j, p := range m.passes {
			xs[j] = p[i].ms
		}
		out[i] = median(xs)
	}
	return out
}

// endToEnd computes the untraced metrics. Costs come from one pass (every
// pass is identical, see measure).
func (m *measurement) endToEnd(setupS, setupWall, allocBytes float64) []named {
	p0 := m.passes[0]
	var msgs, rounds, failed float64
	for _, r := range p0 {
		msgs += float64(r.msgs)
		rounds += float64(r.rounds)
		if r.failed {
			failed++
		}
	}
	k := float64(len(p0))
	times := m.opTimes()
	cpuPerOp := make([]float64, len(m.passes))
	refPerOp := make([]float64, len(m.passes))
	for i, p := range m.passes {
		cpuPerOp[i] = ms(m.cpu[i]) / float64(len(p))
		refPerOp[i] = m.norm[i] / float64(len(p))
	}
	return []named{
		{"setup_s", setupS, "s"},
		{"setup_wall_s", setupWall, "s"},
		{"ops_per_s", m.throughput(), "1/s"},
		{"op_ms_p50", quantile(times, 0.5), "ms"},
		{"op_ms_p90", quantile(times, 0.9), "ms"},
		{"cpu_ms_per_op", median(cpuPerOp), "ms"},
		{"cpu_ref_per_op", median(refPerOp), "ref"},
		{"msgs_per_op", msgs / k, "count"},
		{"rounds_per_op", rounds / k, "count"},
		{"fail_frac", failed / k, "frac"},
		{"alloc_mb_per_op", allocBytes / 1e6 / float64(m.attempted()), "MB"},
	}
}

func printTable(workload, title, samples string, xs []named) {
	fmt.Printf("# %s: %s, %s\n", workload, title, samples)
	for _, x := range xs {
		fmt.Printf("%-28s %16.6g %s\n", x.name, x.value, x.unit)
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
