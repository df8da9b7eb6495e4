package algo

import (
	"fmt"
	"time"

	"wcle/internal/engine"
	"wcle/internal/graph"
	"wcle/internal/sim"
)

// BatchOptions parameterizes RunMany: many independent elections of one
// backend on one graph, sharded across a worker pool, with trial i at
// sim.DeriveSeed(Base.Seed, i) (see engine.BatchOptions).
type BatchOptions = engine.BatchOptions

// BatchResult aggregates a RunMany batch: the engine batch's totals and
// per-trial vectors plus the election tallies of a Tally.
type BatchResult struct {
	// Algorithm is the backend that ran the batch.
	Algorithm string
	Trials    int

	// Leader-count outcomes: exactly one, none, more than one.
	One, Zero, Multi int

	// Totals across trials.
	Messages   int64
	Bits       int64
	FaultDrops int64
	Delayed    int64
	Rounds     int64
	Contenders int

	// Wall-clock of the whole batch and the resulting throughput.
	Elapsed         time.Duration
	ElectionsPerSec float64

	// Shards is the per-shard aggregation from the worker pool.
	Shards []sim.ShardStats

	// Per-trial vectors, indexed by trial; populated only when
	// BatchOptions.CollectTrials is set. TrialOutcomes holds 0 (no
	// leader), 1 (unique leader), or 2 (multiple leaders).
	TrialOutcomes   []int8
	TrialRounds     []int32
	TrialMessages   []int64
	TrialContenders []int32
}

// RunMany executes opts.Trials independent elections of backend a on g
// through engine.RunMany and tallies each trial's Outcome. Everything
// except the wall-clock fields of the result is deterministic in (g, a,
// opts.Base.Seed, opts.Trials). Only backends built by this package's
// registry (engine protocols) can run a batch.
func RunMany(g *graph.Graph, a Algorithm, opts BatchOptions) (*BatchResult, error) {
	p := Protocol(a)
	if p == nil {
		return nil, fmt.Errorf("algo: backend %q is not an engine protocol", a.Name())
	}
	tally := NewTally(opts.Trials)
	eb, err := engine.RunMany(p, g, opts, func(i int, o engine.Options, inst engine.Instance, res *engine.Result) error {
		out, err := p.Finish(inst, res, o)
		if err != nil {
			return err
		}
		tally.Record(i, out)
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := &BatchResult{
		Algorithm:       a.Name(),
		Trials:          eb.Trials,
		Messages:        eb.Messages,
		Bits:            eb.Bits,
		FaultDrops:      eb.FaultDrops,
		Delayed:         eb.Delayed,
		Rounds:          eb.Rounds,
		Elapsed:         eb.Elapsed,
		ElectionsPerSec: eb.RunsPerSec,
		Shards:          eb.Shards,
		TrialRounds:     eb.TrialRounds,
		TrialMessages:   eb.TrialMessages,
	}
	tally.Fill(b, opts.CollectTrials)
	return b, nil
}

// Tally folds per-trial election outcomes into leader-count and contender
// tallies. RunMany records every trial of a batch through one, and so does
// the cluster path of internal/serve, so a batch tallies the same wherever
// its trials ran. Record may run concurrently for distinct trials.
type Tally struct {
	outcomes   []int8
	contenders []int32
}

// NewTally returns an empty tally of trials elections.
func NewTally(trials int) *Tally {
	if trials <= 0 {
		return &Tally{}
	}
	return &Tally{outcomes: make([]int8, trials), contenders: make([]int32, trials)}
}

// Record folds trial i's outcome: its leader count class and its
// contender count.
func (t *Tally) Record(i int, out *Outcome) {
	switch len(out.Leaders) {
	case 0:
		t.outcomes[i] = 0
	case 1:
		t.outcomes[i] = 1
	default:
		t.outcomes[i] = 2
	}
	t.contenders[i] = int32(out.Contenders)
}

// Fill adds the tallies to b's One, Zero, Multi and Contenders and, when
// collect is set, stores the TrialOutcomes and TrialContenders vectors.
func (t *Tally) Fill(b *BatchResult, collect bool) {
	for i, o := range t.outcomes {
		switch o {
		case 0:
			b.Zero++
		case 1:
			b.One++
		default:
			b.Multi++
		}
		b.Contenders += int(t.contenders[i])
	}
	if collect {
		b.TrialOutcomes = t.outcomes
		b.TrialContenders = t.contenders
	}
}
