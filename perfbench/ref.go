package main

import (
	"runtime"
	"sort"
	"time"

	"wcle/internal/sim"
)

// The reference kernel is a fixed piece of work, owned by the benchmark
// and independent of the program, that a run times around and inside its
// ops. On a shared VM the speed of a vCPU drifts by 10-30% over tens of
// seconds, and process CPU time drifts with it, because cache, memory and
// core contention from other tenants slow every instruction. The drift
// hits the reference kernel as it hits the ops around it, so an op's CPU
// time divided by the kernel's (cpu_ref_per_op) leaves the drift out,
// while a change to the program moves the op and not the kernel.
//
// The kernel mixes three kinds of work, each ~2-3 ms on the 2-vCPU
// reference box, so that it slows as the program's ops do: hashing and
// map updates with sorting (the id sets and outboxes), dependent loads
// over a 16 MB table (cache and memory latency), and per-node maps and
// slices grown round by round (the shape of a node's Step). Measured
// over 5 minutes of sim-elect ops, the three together correlate at 0.90
// with the ops' speed per pass, and the spread of the ratio is half that
// of raw CPU time.

// refChase is the pointer-chase table: a random permutation of one cycle
// (Sattolo's shuffle), built once per process, outside every timing.
var refChase []uint32

// refSink keeps the kernel's results live.
var refSink uint64

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func initRefKernel() {
	const n = 1 << 22
	refChase = make([]uint32, n)
	for i := range refChase {
		refChase[i] = uint32(i)
	}
	x := uint64(7)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		refChase[i], refChase[j] = refChase[j], refChase[i]
	}
}

// refNode is one node of the kernel's node-set part.
type refNode struct {
	ids map[uint64]struct{}
	out []uint64
}

// refKernel runs the kernel once.
func refKernel() {
	x := uint64(88172645463325252)
	m := make(map[uint32]uint32, 1024)
	var s []uint64
	for i := 0; i < 10000; i++ {
		x = xorshift(x)
		m[uint32(x%65536)] += uint32(i)
		s = append(s, x)
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	refSink += s[len(s)/2] + uint64(len(m))

	p := uint32(0)
	for i := 0; i < 15000; i++ {
		p = refChase[p]
	}
	refSink += uint64(p)

	const nodes = 128
	ns := make([]*refNode, nodes)
	for i := range ns {
		ns[i] = &refNode{ids: map[uint64]struct{}{}}
	}
	for r := 0; r < 400; r++ {
		for i := 0; i < nodes; i++ {
			x = xorshift(x)
			v := ns[x%nodes]
			v.ids[x%4096] = struct{}{}
			v.out = append(v.out, x)
			if len(v.out) > 64 {
				v.out = v.out[:0:0]
			}
		}
	}
	for _, v := range ns {
		refSink += uint64(len(v.ids))
	}
}

// refEvery is how often a run times the kernel: at the start and end of
// every pass, between ops once this much wall time has passed since the
// last sample, and inside a sim op at a round boundary once this much
// has passed (refTap). At ~8 ms a sample, this costs ~6% of a run.
const refEvery = 120 * time.Millisecond

// refSample is one timing of the kernel.
type refSample struct {
	at  time.Time
	cpu time.Duration
	// gc marks a sample during which a collection cycle ended: the
	// collector's work on an op's heap slowed it down.
	gc bool
}

// refSampler times the kernel and normalizes the ops of a pass by the
// samples taken around and during each.
type refSampler struct {
	last time.Time
	// pass holds the current pass's samples, in time order.
	pass []refSample
	// spent is the wall time of all samples so far, GC included, and
	// allocBytes the heap bytes they allocated.
	spent      time.Duration
	allocBytes uint64
	// inOpCPU and inOpWall are the process CPU and wall time of the
	// samples taken inside ops, which timeOp takes out of the op's times.
	inOpCPU, inOpWall time.Duration
}

// refs is the process's sampler: one workload runs per process.
var refs refSampler

// sample times one run of the kernel. Between ops (inOp false) it first
// collects the heap, so that the kernel's allocations do not start a
// collection of the previous op's garbage. Inside an op it does not, and
// the sample's times are taken out of the op's.
func (r *refSampler) sample(inOp bool) {
	var ms0, ms1 runtime.MemStats
	t0 := time.Now()
	if !inOp {
		runtime.GC()
	}
	c0 := cpuTime()
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	refKernel()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&ms1)
	r.pass = append(r.pass, refSample{at: t0, cpu: cpu1 - cpu0, gc: ms1.NumGC != ms0.NumGC})
	r.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
	r.last = time.Now()
	r.spent += r.last.Sub(t0)
	if inOp {
		r.inOpCPU += cpuTime() - c0
		r.inOpWall += r.last.Sub(t0)
	}
}

// between samples the kernel between ops when a sample is due.
func (r *refSampler) between() {
	if time.Since(r.last) >= refEvery {
		r.sample(false)
	}
}

// normalize takes a closing sample and returns the sum over the pass's
// ops of each op's CPU time divided by the median CPU time of the
// samples from the last one before the op started to the first one after
// it ended, leaving out those a collection slowed down (all of them count
// if every one was); it starts the next pass's list. Over a 5-minute run
// of each sim workload this halves the spread of 20-second windows
// against normalizing whole passes by the samples between ops only.
func (r *refSampler) normalize(recs []rec) float64 {
	r.sample(false)
	sum := 0.0
	xs := []float64{}
	for _, op := range recs {
		lo, hi := 0, len(r.pass)-1
		for lo+1 < len(r.pass) && !r.pass[lo+1].at.After(op.at) {
			lo++
		}
		for hi > 0 && !r.pass[hi-1].at.Before(op.end) {
			hi--
		}
		xs = xs[:0]
		for _, smp := range r.pass[lo : hi+1] {
			if !smp.gc {
				xs = append(xs, float64(smp.cpu))
			}
		}
		if len(xs) == 0 {
			for _, smp := range r.pass[lo : hi+1] {
				xs = append(xs, float64(smp.cpu))
			}
		}
		sum += float64(op.cpu) / median(xs)
	}
	r.pass = r.pass[:0]
	return sum
}

// refTap counts the sends of a sim op and, at a round boundary, times the
// kernel when a sample is due. Long ops (sim-adversary's amplified run
// takes ~20 s) so get samples while they run, not only at their ends.
type refTap struct {
	n      int64
	round  int
	rounds int
}

// OnSend implements sim.Observer.
func (t *refTap) OnSend(round, _, _, _, _ int, _ sim.Message) {
	t.n++
	if round == t.round {
		return
	}
	t.round = round
	// Reading the clock every 64th round with sends keeps the tap's cost
	// to a few ns per send.
	if t.rounds++; t.rounds%64 == 0 && time.Since(refs.last) >= refEvery {
		refs.sample(true)
	}
}
