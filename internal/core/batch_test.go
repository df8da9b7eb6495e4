package core

import (
	"reflect"
	"strings"
	"testing"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

// Elections batch through engine.RunMany, the one batch loop. A shared
// stateful fault plane across concurrent trials would race; the batch
// must refuse it and point at NewFault.
func TestRunManyRejectsSharedFault(t *testing.T) {
	g, err := graph.Clique(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := election{DefaultConfig()}
	_, err = engine.RunMany(p, g, engine.BatchOptions{
		Base:   RunOptions{Seed: 1, Fault: &sim.Drop{P: 0.1}},
		Trials: 2,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "NewFault") {
		t.Fatalf("shared Base.Fault not rejected: %v", err)
	}
	// The same plane through NewFault (fresh instance per trial) is fine.
	res, err := engine.RunMany(p, g, engine.BatchOptions{
		Base:     RunOptions{Seed: 1, LeanMetrics: true},
		Trials:   2,
		NewFault: func(int) sim.FaultPlane { return &sim.Drop{P: 0.1} },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 2 || res.FaultDrops == 0 {
		t.Fatalf("faulty batch inconsistent: %+v", res)
	}
}

// CollectTrials must expose per-trial vectors that match each trial's
// native election result and the batch totals, independent of the worker
// count.
func TestRunManyCollectTrials(t *testing.T) {
	g, err := graph.Clique(12, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := election{DefaultConfig()}
	run := func(workers int) (*engine.BatchResult, []*Result) {
		native := make([]*Result, 6)
		res, err := engine.RunMany(p, g, engine.BatchOptions{
			Base:          RunOptions{Seed: 7, LeanMetrics: true},
			Trials:        6,
			Workers:       workers,
			CollectTrials: true,
		}, func(i int, _ RunOptions, inst engine.Instance, r *engine.Result) error {
			native[i] = inst.(*Instance).Collect(r.Metrics)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, native
	}
	res, native := run(3)
	if len(res.TrialRounds) != 6 || len(res.TrialMessages) != 6 {
		t.Fatalf("per-trial vectors not collected: %+v", res)
	}
	var msgs, rounds int64
	for i, r := range native {
		if int32(r.Rounds) != res.TrialRounds[i] || r.Metrics.Messages != res.TrialMessages[i] {
			t.Fatalf("trial %d: vectors %d rounds / %d msgs, election %d / %d",
				i, res.TrialRounds[i], res.TrialMessages[i], r.Rounds, r.Metrics.Messages)
		}
		msgs += res.TrialMessages[i]
		rounds += int64(res.TrialRounds[i])
	}
	if msgs != res.Messages || rounds != res.Rounds {
		t.Fatalf("per-trial sums disagree with totals: %+v", res)
	}
	// Sharding must not change what each trial saw.
	other, otherNative := run(1)
	if !reflect.DeepEqual(res.TrialRounds, other.TrialRounds) ||
		!reflect.DeepEqual(res.TrialMessages, other.TrialMessages) {
		t.Fatal("per-trial vectors differ across worker counts")
	}
	for i := range native {
		if !reflect.DeepEqual(native[i].Leaders, otherNative[i].Leaders) {
			t.Fatalf("trial %d elected differently across worker counts", i)
		}
	}
	// Off by default.
	if plain, err := engine.RunMany(p, g, engine.BatchOptions{
		Base: RunOptions{Seed: 7, LeanMetrics: true}, Trials: 2,
	}, nil); err != nil || plain.TrialRounds != nil || plain.TrialMessages != nil {
		t.Fatalf("per-trial vectors should be nil without CollectTrials (%v)", err)
	}
}
