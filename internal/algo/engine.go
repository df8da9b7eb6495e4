package algo

import (
	"fmt"

	"wcle/internal/core"
	"wcle/internal/engine"
	"wcle/internal/graph"
)

// This file is the bridge between the election-backend contract
// (Algorithm) and the generic protocol substrate (engine.Protocol). Every
// built-in backend is written as an ElectionProtocol; Algorithm is a thin
// adapter over it, and the same protocols are registered in the engine
// registry so protocol-generic layers (the cluster runtime, the protocol
// conformance battery, cmd/electsim -protocol) can run elections without
// knowing they are elections.

// ElectionProtocol is an engine.Protocol that can fold a finished run into
// an election Outcome. Finish receives the same instance Init produced
// (type-assert it to reach backend-native state) and the engine-level
// result of the run.
type ElectionProtocol interface {
	engine.Protocol
	Finish(inst engine.Instance, res *engine.Result, opts Options) (*Outcome, error)
}

// adapter makes an ElectionProtocol satisfy Algorithm.
type adapter struct {
	p ElectionProtocol
}

func (a adapter) Name() string { return a.p.Name() }

func (a adapter) Run(g *graph.Graph, opts Options) (*Outcome, error) {
	out, _, err := runElection(a.p, g, opts)
	return out, err
}

// runElection is the one shared election path: Init, the generic engine
// run, Finish.
func runElection(p ElectionProtocol, g *graph.Graph, opts Options) (*Outcome, *engine.Result, error) {
	inst, err := p.Init(g)
	if err != nil {
		return nil, nil, err
	}
	res, err := engine.RunInstance(p, g, inst, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := p.Finish(inst, res, opts)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// RunWithReport runs a on g and also returns the engine-level report with
// per-node send counts — the cluster runtime's path, where the keystone
// invariant is stated in per-node message counts. Algorithms that are not
// adapters over an ElectionProtocol still run, with a nil report.
func RunWithReport(a Algorithm, g *graph.Graph, opts Options) (*Outcome, *engine.Result, error) {
	if ad, ok := a.(adapter); ok {
		opts.CountSends = true
		return runElection(ad.p, g, opts)
	}
	out, err := a.Run(g, opts)
	return out, nil, err
}

// Protocol unwraps a to its ElectionProtocol when a is one of this
// package's adapters (nil otherwise). The engine registry is fed through
// this: an election registered there IS the backend, not a copy.
func Protocol(a Algorithm) ElectionProtocol {
	if ad, ok := a.(adapter); ok {
		return ad.p
	}
	return nil
}

// configFromEngine maps the engine registry's flat parameter set onto the
// backend constructor Config, mirroring the cluster JobSpec mapping: zero
// election knobs keep backend defaults.
func configFromEngine(e engine.Config) Config {
	cfg := Config{Horizon: e.Horizon}
	if e.Resend > 0 || e.AssumedN > 0 || e.C1 > 0 || e.C2 > 0 || e.MaxWalkLen > 0 || e.FixedTu > 0 {
		cc := core.DefaultConfig()
		cc.Resend = e.Resend
		cc.AssumedN = e.AssumedN
		if e.C1 > 0 {
			cc.C1 = e.C1
		}
		if e.C2 > 0 {
			cc.C2 = e.C2
		}
		if e.MaxWalkLen > 0 {
			cc.MaxWalkLen = e.MaxWalkLen
		}
		if e.FixedTu > 0 {
			cc.FixedWalkLen = e.FixedTu
		}
		cfg.Core = cc
	}
	cfg.Sublinear = SublinearConfig{C1: e.C1, C2: e.C2, Hops: e.Hops, Window: e.Window}
	return cfg
}

// electionBuilder adapts a backend name into an engine registry builder.
func electionBuilder(name string) engine.Builder {
	return func(ecfg engine.Config) (engine.Protocol, error) {
		a, err := New(name, configFromEngine(ecfg))
		if err != nil {
			return nil, err
		}
		p := Protocol(a)
		if p == nil {
			return nil, fmt.Errorf("algo: backend %q is not an engine protocol", name)
		}
		return p, nil
	}
}

func init() {
	// Election backends join the generic protocol registry alongside the
	// engine's own substrates.
	for _, name := range []string{GilbertRS18, GilbertRS18Fixed, FloodMax, KPPRT} {
		engine.Register(name, electionBuilder(name))
	}
}
