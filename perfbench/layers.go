package main

import (
	"sync"
	"time"

	"wcle/internal/engine"
	"wcle/internal/obs"
	"wcle/internal/protocol"
	"wcle/internal/sim"
	"wcle/internal/wire"
)

// setupStats collects the timings every set-up takes of the two layers
// set-up pays for: graph construction and the spectral profile.
type setupStats struct {
	buildMs   []float64
	profileMs []float64
}

// layers accumulates the raw per-layer counters of a traced measurement.
// Everything is measured from outside the program: timing wrappers around
// public calls, the sim.Observer tap, obs spans through a counting sink,
// and counters the program already reports.
type layers struct {
	passes int
	ops    int64
	opNs   int64 // sum of op wall times
	extra  time.Duration

	runNs      int64 // engine.RunInstance wall time
	coreStep   stepAcc
	engineStep stepAcc

	byKind                          map[string]int64
	msgs, bits                      int64
	deliveries, busyRounds          int64
	faultDrops, mutated             int64
	capAborts, omissionCapAborts    int64
	amplification                   []float64
	defendMsgs, undefendMsgs        int64
	clusterJobNs, clusterReplayNs   int64
	envelopes, frames, wireBytes    int64
	barriers                        int64
	shards                          int64
	submitMs, registerMs            []float64
	queuedMs, runMs                 []float64
	polls                           int64
	serveCPU, pollCPU               time.Duration
	cacheHits, cacheMisses, refused int64

	spans *spanSink
	tap   *tap

	idsetNs, idsetAdds           int64
	encodeNs, decodeNs, codecMsg int64
}

func newLayers() *layers {
	return &layers{byKind: map[string]int64{}, spans: newSpanSink(), tap: &tap{}}
}

// tracer returns a tracer feeding the counting sink.
func (l *layers) tracer() *obs.Tracer { return obs.New(l.spans, 0) }

// addMetrics folds one finished run's sim accounting in.
func (l *layers) addMetrics(m sim.Metrics) {
	l.msgs += m.Messages
	l.bits += m.Bits
	l.deliveries += m.Deliveries
	l.busyRounds += m.BusyRounds
	l.faultDrops += m.FaultDrops
	l.mutated += m.Mutated
	for k, v := range m.ByKind {
		l.byKind[k] += v
	}
}

// stepAcc times engine.Node.Step calls.
type stepAcc struct {
	ns, calls int64
}

// timedNode wraps a node so every Step call is timed.
type timedNode struct {
	engine.Node
	acc *stepAcc
}

func (n timedNode) Step(ctx *sim.Context, inbox []sim.Envelope) error {
	t0 := time.Now()
	err := n.Node.Step(ctx, inbox)
	n.acc.ns += int64(time.Since(t0))
	n.acc.calls++
	return err
}

// timedInstance hands out timed nodes. Run protocols on it through
// engine.RunInstance and keep the inner instance for native results.
type timedInstance struct {
	engine.Instance
	acc *stepAcc
}

func (i timedInstance) Node(v int) engine.Node { return timedNode{i.Instance.Node(v), i.acc} }

// summarizingInstance keeps the inner instance's trace summary visible to
// the engine, so wrapping does not change the trace.
type summarizingInstance struct {
	timedInstance
	engine.TraceSummarizer
}

func wrapInstance(inst engine.Instance, acc *stepAcc) engine.Instance {
	ti := timedInstance{inst, acc}
	if ts, ok := inst.(engine.TraceSummarizer); ok {
		return summarizingInstance{ti, ts}
	}
	return ti
}

// spanSink sums span time by category/name and counts events. Shards of
// the loopback cluster emit from several goroutines.
type spanSink struct {
	mu     sync.Mutex
	ns     map[string]int64
	events int64
}

func newSpanSink() *spanSink { return &spanSink{ns: map[string]int64{}} }

func (s *spanSink) Emit(ev obs.Ev) {
	s.mu.Lock()
	s.events++
	if ev.Dur > 0 {
		s.ns[ev.Cat+"/"+ev.Name] += ev.Dur
	}
	s.mu.Unlock()
}

func (s *spanSink) get(key string) (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ns[key], s.events
}

// tapCap bounds the messages a traced run keeps for the codec and id-set
// probes.
const tapCap = 200000

// tap is a sim.Observer that counts every accepted send and keeps copies
// of the first tapCap messages for the probes: the canonical encoding of
// each, and the id list and destination of each up-message. Copies, since
// protocol messages are pooled and overwritten after delivery.
type tap struct {
	sends int64
	enc   [][]byte
	upIDs [][]protocol.ID
	upDst []int32
}

func (t *tap) OnSend(round, from, fromPort, to, toPort int, m sim.Message) {
	t.sends++
	if len(t.enc) >= tapCap {
		return
	}
	if b, err := wire.AppendMessage(nil, m); err == nil {
		t.enc = append(t.enc, b)
	}
	if up, ok := m.(*protocol.UpMsg); ok && len(up.IDs) > 0 {
		t.upIDs = append(t.upIDs, append([]protocol.ID(nil), up.IDs...))
		t.upDst = append(t.upDst, int32(to))
	}
}

// counter is the untraced observer of workloads that must count the sends
// of runs that abort (a round-cap abort returns no metrics).
type counter struct{ n int64 }

func (c *counter) OnSend(int, int, int, int, int, sim.Message) { c.n++ }

// probeMinDur is how long each fixed-input probe repeats its replay.
const probeMinDur = 100 * time.Millisecond

// probeIDSets replays the id lists of the tapped up-messages through
// protocol.TrackedSet.Add (a FastSet plus insertion order), one set per
// receiving node, as the receivers' accumulators do.
func (l *layers) probeIDSets(n int) {
	if len(l.tap.upIDs) == 0 {
		return
	}
	sets := make([]protocol.TrackedSet, n)
	t0 := time.Now()
	for time.Since(t0) < probeMinDur {
		for i := range sets {
			sets[i].Reset()
		}
		for i, ids := range l.tap.upIDs {
			s := &sets[l.tap.upDst[i]]
			for _, id := range ids {
				s.Add(id)
			}
			l.idsetAdds += int64(len(ids))
		}
	}
	l.idsetNs += int64(time.Since(t0))
}

// probeCodec replays the tapped messages through the wire codec: each is
// encoded with wire.AppendMessage and decoded with wire.DecodeMessage,
// timed separately.
func (l *layers) probeCodec() error {
	if len(l.tap.enc) == 0 {
		return nil
	}
	msgs := make([]sim.Message, len(l.tap.enc))
	for i, b := range l.tap.enc {
		m, err := wire.DecodeMessage(b)
		if err != nil {
			return checkf("wire round trip: %v", err)
		}
		msgs[i] = m
	}
	bufs := make([][]byte, len(msgs))
	var enc, dec time.Duration
	for enc+dec < probeMinDur {
		t0 := time.Now()
		for i, m := range msgs {
			b, err := wire.AppendMessage(bufs[i][:0], m)
			if err != nil {
				return err
			}
			bufs[i] = b
		}
		t1 := time.Now()
		for _, b := range bufs {
			if _, err := wire.DecodeMessage(b); err != nil {
				return checkf("wire round trip: %v", err)
			}
		}
		enc += t1.Sub(t0)
		dec += time.Since(t1)
		l.codecMsg += int64(len(bufs))
	}
	l.encodeNs += int64(enc)
	l.decodeNs += int64(dec)
	return nil
}

// finish computes every per-layer metric. Metrics of a layer the workload
// does not exercise are 0.
func (l *layers) finish(st *setupStats, plain, traced *measurement) []named {
	ops := float64(l.ops)
	per := func(x int64) float64 { return ratio(float64(x), ops) }
	opNs := float64(l.opNs)
	stepNs := l.coreStep.ns + l.engineStep.ns
	spanNs := func(key string) float64 { ns, _ := l.spans.get(key); return float64(ns) }
	_, events := l.spans.get("")
	shardNs := float64(l.shards) * float64(l.clusterJobNs)
	perPass := func(x int64) float64 { return ratio(float64(x), float64(l.passes)) }
	overhead := 0.0
	if u := plain.throughput(); u > 0 {
		overhead = 1 - traced.throughput()/u
	}
	return []named{
		{"core.step_share", ratio(float64(l.coreStep.ns), opNs), "frac"},
		{"core.step_ns_per_call", ratio(float64(l.coreStep.ns), float64(l.coreStep.calls)), "ns"},
		{"core.steps_per_op", per(l.coreStep.calls), "count"},
		{"protocol.token_msgs_per_op", per(l.byKind[protocol.KindToken]), "count"},
		{"protocol.up_msgs_per_op", per(l.byKind[protocol.KindUp]), "count"},
		{"protocol.down_msgs_per_op", per(l.byKind[protocol.KindDown]), "count"},
		{"protocol.bits_per_msg", ratio(float64(l.bits), float64(l.msgs)), "bit"},
		{"protocol.idset_ns_per_add", ratio(float64(l.idsetNs), float64(l.idsetAdds)), "ns"},
		{"engine.step_share", ratio(float64(l.engineStep.ns), opNs), "frac"},
		{"engine.defend_msg_ratio", ratio(float64(l.defendMsgs), float64(l.undefendMsgs)), "ratio"},
		{"sim.self_share", ratio(float64(l.runNs-stepNs), opNs), "frac"},
		{"sim.ns_per_delivery", ratio(float64(l.runNs-stepNs), float64(l.deliveries)), "ns"},
		{"sim.deliveries_per_op", per(l.deliveries), "count"},
		{"sim.busy_rounds_per_op", per(l.busyRounds), "count"},
		{"sim.compute_s", ratio(spanNs("sim/compute")/1e9, ops), "s"},
		{"sim.flush_s", ratio(spanNs("sim/flush")/1e9, ops), "s"},
		{"sim.fault_drops_per_op", per(l.faultDrops), "count"},
		{"sim.mutated_per_op", per(l.mutated), "count"},
		{"algo.round_cap_aborts", perPass(l.capAborts), "count"},
		{"algo.omission_cap_aborts", perPass(l.omissionCapAborts), "count"},
		{"algo.amplification_max", quantile(l.amplification, 1), "ratio"},
		{"algo.amplification_p50", quantile(l.amplification, 0.5), "ratio"},
		{"wire.encode_ns_per_msg", ratio(float64(l.encodeNs), float64(l.codecMsg)), "ns"},
		{"wire.decode_ns_per_msg", ratio(float64(l.decodeNs), float64(l.codecMsg)), "ns"},
		{"wire.envelopes_per_op", per(l.envelopes), "count"},
		{"wire.frames_per_op", per(l.frames), "count"},
		{"wire.bytes_per_envelope", ratio(float64(l.wireBytes), float64(l.envelopes)), "B"},
		{"wire.bytes_per_op", per(l.wireBytes), "B"},
		{"cluster.overhead_share", ratio(float64(l.clusterJobNs-l.clusterReplayNs), float64(l.clusterJobNs)), "frac"},
		{"cluster.flush_share", ratio(spanNs("cluster/wire-flush"), shardNs), "frac"},
		{"cluster.drain_wait_share", ratio(spanNs("cluster/drain"), shardNs), "frac"},
		{"cluster.barriers_per_op", ratio(float64(l.barriers), ops*float64(max(l.shards, 1))), "count"},
		{"serve.submit_ms_p50", median(l.submitMs), "ms"},
		{"serve.register_ms_p50", median(l.registerMs), "ms"},
		{"serve.queued_ms_p50", median(l.queuedMs), "ms"},
		{"serve.run_ms_p50", median(l.runMs), "ms"},
		{"serve.polls_per_op", per(l.polls), "count"},
		{"serve.poll_cpu_share", ratio(float64(l.polls)*float64(l.pollCPU), float64(l.serveCPU)), "frac"},
		{"serve.cache_hits", float64(l.cacheHits), "count"},
		{"serve.cache_misses", float64(l.cacheMisses), "count"},
		{"serve.rejected", float64(l.refused), "count"},
		{"spectral.profile_ms", median(st.profileMs), "ms"},
		{"graph.build_ms", median(st.buildMs), "ms"},
		{"obs.trace_overhead_frac", overhead, "frac"},
		{"obs.events_per_op", per(events), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
