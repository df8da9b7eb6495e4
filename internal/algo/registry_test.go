package algo_test

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"wcle/internal/algo"
	"wcle/internal/core"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

func TestRegistryNames(t *testing.T) {
	names := algo.Names()
	want := []string{algo.FloodMax, algo.GilbertRS18, algo.KPPRT}
	for _, w := range want {
		if !algo.Known(w) {
			t.Fatalf("backend %q not registered", w)
		}
	}
	if len(names) < len(want) {
		t.Fatalf("Names() = %v, want at least %v", names, want)
	}
	if algo.Resolve("") != algo.DefaultName {
		t.Fatal("empty name must resolve to the default backend")
	}
	if _, err := algo.New("no-such-algorithm", algo.Config{}); err == nil {
		t.Fatal("unknown backend must error")
	}
	for _, name := range want {
		a, err := algo.New(name, algo.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
}

// TestGilbertPartialConfigErrsLoudly pins the config contract: only an
// entirely zero Core section defaults; a partial one (here FixedWalkLen
// without C1/C2) must fail core's validation instead of silently running
// the default algorithm with the knob dropped.
func TestGilbertPartialConfigErrsLoudly(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{Core: core.Config{FixedWalkLen: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(g, algo.Options{Seed: 1}); err == nil {
		t.Fatal("partial Core config must error, not silently default")
	}
}

// TestGilbertBackendMatchesCore pins the adapter: running the paper's
// algorithm through the registry must reproduce core.Run exactly.
func TestGilbertBackendMatchesCore(t *testing.T) {
	g, err := graph.RandomRegular(48, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 3; seed++ {
		out, err := a.Run(g, algo.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Run(g, core.DefaultConfig(), core.RunOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Leaders, want.Leaders) ||
			out.Rounds != want.Rounds ||
			out.Metrics.Messages != want.Metrics.Messages ||
			out.Metrics.Bits != want.Metrics.Bits {
			t.Fatalf("seed %d: backend diverged from core.Run: %+v vs %+v", seed, out, want)
		}
		if _, ok := out.Detail.(*core.Result); !ok {
			t.Fatalf("Detail is %T, want *core.Result", out.Detail)
		}
	}
}

// TestBatchMatchesCoreRunMany pins the batch runner against a plain loop
// of core.Run for the default backend: trial i at sim.DeriveSeed(seed, i),
// the same aggregation, field for field, per-trial vectors included.
func TestBatchMatchesCoreRunMany(t *testing.T) {
	g, err := graph.RandomRegular(48, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed, trials = 42, 6
	got, err := algo.RunMany(g, a, algo.BatchOptions{
		Base: algo.Options{Seed: seed, LeanMetrics: true}, Trials: trials, Workers: 3, CollectTrials: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &algo.BatchResult{
		Algorithm:       algo.GilbertRS18,
		Trials:          trials,
		TrialOutcomes:   make([]int8, trials),
		TrialRounds:     make([]int32, trials),
		TrialMessages:   make([]int64, trials),
		TrialContenders: make([]int32, trials),
	}
	for i := 0; i < trials; i++ {
		res, err := core.Run(g, core.DefaultConfig(), core.RunOptions{Seed: sim.DeriveSeed(seed, uint64(i)), LeanMetrics: true})
		if err != nil {
			t.Fatal(err)
		}
		switch len(res.Leaders) {
		case 0:
			want.Zero++
		case 1:
			want.One++
			want.TrialOutcomes[i] = 1
		default:
			want.Multi++
			want.TrialOutcomes[i] = 2
		}
		want.Messages += res.Metrics.Messages
		want.Bits += res.Metrics.Bits
		want.FaultDrops += res.Metrics.FaultDrops
		want.Delayed += res.Metrics.Delayed
		want.Rounds += int64(res.Rounds)
		want.Contenders += len(res.Contenders)
		want.TrialRounds[i] = int32(res.Rounds)
		want.TrialMessages[i] = res.Metrics.Messages
		want.TrialContenders[i] = int32(len(res.Contenders))
	}
	// Wall-clock fields are the only nondeterministic ones.
	got.Elapsed, got.ElectionsPerSec, got.Shards = 0, 0, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("batch diverged:\n algo: %+v\n core: %+v", got, want)
	}
}

// TestRunManyCollectTrials: the per-trial vectors are consistent with the
// batch totals and independent of the worker count, and off by default.
func TestRunManyCollectTrials(t *testing.T) {
	g, err := graph.Clique(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.GilbertRS18, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *algo.BatchResult {
		res, err := algo.RunMany(g, a, algo.BatchOptions{
			Base:          algo.Options{Seed: 7, LeanMetrics: true},
			Trials:        6,
			Workers:       workers,
			CollectTrials: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(3)
	if len(res.TrialOutcomes) != 6 || len(res.TrialRounds) != 6 ||
		len(res.TrialMessages) != 6 || len(res.TrialContenders) != 6 {
		t.Fatalf("per-trial vectors not collected: %+v", res)
	}
	var msgs, rounds int64
	var one, zero, multi, cont int
	for i := range res.TrialOutcomes {
		switch res.TrialOutcomes[i] {
		case 0:
			zero++
		case 1:
			one++
		default:
			multi++
		}
		msgs += res.TrialMessages[i]
		rounds += int64(res.TrialRounds[i])
		cont += int(res.TrialContenders[i])
	}
	if one != res.One || zero != res.Zero || multi != res.Multi {
		t.Fatalf("outcome vector disagrees with totals: %+v", res)
	}
	if msgs != res.Messages || rounds != res.Rounds || cont != res.Contenders {
		t.Fatalf("per-trial sums disagree with totals: %+v", res)
	}
	other := run(1)
	if !reflect.DeepEqual(res.TrialOutcomes, other.TrialOutcomes) ||
		!reflect.DeepEqual(res.TrialRounds, other.TrialRounds) ||
		!reflect.DeepEqual(res.TrialMessages, other.TrialMessages) ||
		!reflect.DeepEqual(res.TrialContenders, other.TrialContenders) {
		t.Fatal("per-trial vectors differ across worker counts")
	}
	plain, err := algo.RunMany(g, a, algo.BatchOptions{Base: algo.Options{Seed: 7, LeanMetrics: true}, Trials: 2})
	if err != nil || plain.TrialOutcomes != nil || plain.TrialRounds != nil ||
		plain.TrialMessages != nil || plain.TrialContenders != nil {
		t.Fatalf("per-trial vectors should be nil without CollectTrials (%v)", err)
	}
}

// TestBatchWorkerCountInvariance: a batch's deterministic fields cannot
// depend on the shard count, whatever the backend.
func TestBatchWorkerCountInvariance(t *testing.T) {
	g, err := graph.Clique(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{algo.FloodMax, algo.KPPRT} {
		a, err := algo.New(name, algo.Config{})
		if err != nil {
			t.Fatal(err)
		}
		one, err := algo.RunMany(g, a, algo.BatchOptions{
			Base: algo.Options{Seed: 9}, Trials: 8, Workers: 1, CollectTrials: true})
		if err != nil {
			t.Fatal(err)
		}
		four, err := algo.RunMany(g, a, algo.BatchOptions{
			Base: algo.Options{Seed: 9}, Trials: 8, Workers: 4, CollectTrials: true})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one.TrialMessages, four.TrialMessages) ||
			!reflect.DeepEqual(one.TrialOutcomes, four.TrialOutcomes) ||
			one.One != four.One {
			t.Fatalf("%s: worker count changed the batch", name)
		}
	}
}

// TestBatchRejectsSharedFault: a stateful fault plane shared across shards
// is a determinism bug, so a batch must refuse it and point at NewFault.
func TestBatchRejectsSharedFault(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.New(algo.FloodMax, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = algo.RunMany(g, a, algo.BatchOptions{
		Base: algo.Options{Seed: 1, Fault: &sim.Drop{P: 0.1}}, Trials: 4})
	if err == nil || !strings.Contains(err.Error(), "NewFault") {
		t.Fatalf("shared Base.Fault not rejected: %v", err)
	}
	// The same plane through NewFault (fresh instance per trial) is fine.
	res, err := algo.RunMany(g, a, algo.BatchOptions{
		Base:     algo.Options{Seed: 1},
		Trials:   4,
		NewFault: func(int) sim.FaultPlane { return &sim.Drop{P: 0.1} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 4 || res.One+res.Zero+res.Multi != 4 {
		t.Fatalf("batch outcome inconsistent: %+v", res)
	}
}

// TestKPPRTSublinearOnCliques spot-checks the headline property: the
// kpprt message count on cliques grows far slower than m.
func TestKPPRTSublinearOnCliques(t *testing.T) {
	a, err := algo.New(algo.KPPRT, algo.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The gap widens with n (Theta(sqrt(n) log^{3/2} n) vs m = Theta(n^2)):
	// ~4x at n=64, ~16x at n=256.
	for _, c := range []struct{ n, factor int }{{64, 2}, {256, 8}} {
		g, err := graph.Clique(c.n, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.Run(g, algo.Options{Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		if out.Metrics.Messages*int64(c.factor) > int64(g.M()) {
			t.Fatalf("n=%d: %d messages vs m=%d — not sublinear", c.n, out.Metrics.Messages, g.M())
		}
	}
}
