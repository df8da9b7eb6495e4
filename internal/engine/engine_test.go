package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

func mustRun(t *testing.T, name string, cfg engine.Config, g *graph.Graph, seed int64) *engine.Result {
	t.Helper()
	p, err := engine.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(p, g, engine.Options{Seed: seed, CountSends: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRegistryHasBuiltinsAndElections(t *testing.T) {
	// The engine's own substrates plus the election backends internal/algo
	// registers at init (imported transitively through algotest here).
	for _, name := range []string{
		engine.PushPull, engine.BFSTree, engine.Aggregate,
		"gilbertrs18", "gilbertrs18-fixed", "floodmax", "kpprt",
	} {
		if !engine.Known(name) {
			t.Fatalf("registry is missing %q (has %v)", name, engine.Names())
		}
	}
}

func TestNewUnknownProtocol(t *testing.T) {
	if _, err := engine.New("no-such-protocol", engine.Config{}); err == nil {
		t.Fatal("unknown protocol should fail")
	}
}

// TestAggregate checks the tree aggregation end to end: every node must
// converge on the true aggregate of the drawn values (column 0 of the
// output matrix holds each node's value, column 1 its result).
func TestAggregate(t *testing.T) {
	graphs := map[string]func() (*graph.Graph, error){
		"clique16": func() (*graph.Graph, error) { return graph.Clique(16, nil) },
		"cycle12":  func() (*graph.Graph, error) { return graph.Cycle(12, nil) },
		"torus4x4": func() (*graph.Graph, error) { return graph.Torus2D(4, 4, nil) },
	}
	for gname, build := range graphs {
		for _, op := range []string{"max", "sum"} {
			t.Run(gname+"/"+op, func(t *testing.T) {
				g, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res := mustRun(t, engine.Aggregate, engine.Config{Op: op}, g, 7)
				var want int64
				for _, o := range res.Outputs {
					if o[0] <= 0 {
						t.Fatalf("node drew non-positive value %d", o[0])
					}
					if op == "sum" {
						want += o[0]
					} else if o[0] > want {
						want = o[0]
					}
				}
				for v, o := range res.Outputs {
					if o[1] != want {
						t.Fatalf("node %d reports %s=%d, want %d", v, op, o[1], want)
					}
				}
			})
		}
	}
}

func TestAggregateRejectsBadOp(t *testing.T) {
	if _, err := engine.New(engine.Aggregate, engine.Config{Op: "median"}); err == nil {
		t.Fatal("unsupported op should fail")
	}
}

// TestBFSTreeDepthsMatchBFS cross-checks the protocol's depths against the
// graph-side BFS distances.
func TestBFSTreeDepthsMatchBFS(t *testing.T) {
	g, err := graph.Hypercube(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, engine.BFSTree, engine.Config{Root: 3}, g, 1)
	dist := graph.BFSDist(g, 3)
	for v, o := range res.Outputs {
		if o[0] != 1 {
			t.Fatalf("node %d did not join", v)
		}
		if int(o[2]) != dist[v] {
			t.Fatalf("node %d depth %d != BFS distance %d", v, o[2], dist[v])
		}
	}
}

// TestPushPullSourceBookkeeping pins the source's output row: informed
// from round zero.
func TestPushPullSourceBookkeeping(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, engine.PushPull, engine.Config{Source: 2, Rumor: 9, Horizon: 40}, g, 5)
	if res.Outputs[2][0] != 1 || res.Outputs[2][1] != 0 {
		t.Fatalf("source row = %v, want [1 0]", res.Outputs[2])
	}
}

// TestRunManyFoldSeesEveryTrial: the RunMany fold runs once per trial, under the
// trial's derived seed, on the instance and result the batch totals count.
func TestRunManyFoldSeesEveryTrial(t *testing.T) {
	g, err := graph.Clique(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.New(engine.PushPull, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const seed, trials = 5, 6
	seeds := make([]int64, trials)
	msgs := make([]int64, trials)
	b, err := engine.RunMany(p, g, engine.BatchOptions{
		Base: engine.Options{Seed: seed}, Trials: trials, Workers: 3, CollectTrials: true,
	}, func(i int, o engine.Options, inst engine.Instance, res *engine.Result) error {
		if inst == nil {
			return fmt.Errorf("trial %d: nil instance", i)
		}
		seeds[i], msgs[i] = o.Seed, res.Metrics.Messages
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seeds {
		if seeds[i] != sim.DeriveSeed(seed, uint64(i)) {
			t.Fatalf("trial %d ran at seed %d, want %d", i, seeds[i], sim.DeriveSeed(seed, uint64(i)))
		}
	}
	if !reflect.DeepEqual(msgs, b.TrialMessages) {
		t.Fatalf("fold saw messages %v, batch recorded %v", msgs, b.TrialMessages)
	}
	boom := errors.New("boom")
	if _, err := engine.RunMany(p, g, engine.BatchOptions{Base: engine.Options{Seed: seed}, Trials: 2},
		func(int, engine.Options, engine.Instance, *engine.Result) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("fold error not surfaced: %v", err)
	}
}
