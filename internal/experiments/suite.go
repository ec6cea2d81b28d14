// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): it wires the synthetic workloads, the file
// cache, the disk model, the predictors and the simulator together, one
// driver per experiment, and renders results in the paper's units.
package experiments

import (
	"pcapsim/internal/core"
	"pcapsim/internal/ltree"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// DefaultSeed is the workload seed used by the CLI and the benchmarks.
// All numbers in EXPERIMENTS.md are produced with this seed.
const DefaultSeed uint64 = 20040214 // HPCA-10 opened February 14, 2004

// Suite generates workloads once and runs policies over them, memoizing
// per-(app, policy) results so that figures sharing runs (6/7, 8, 9, 10)
// do not recompute them.
//
// A Suite is safe for concurrent use: trace generation and every result
// computation sit behind singleflight caches (see engine.go), so
// RunMatrix can fan the evaluation matrix across workers while the
// renderers keep reading memoized values.
type Suite struct {
	seed   uint64
	cfg    sim.Config
	runner *sim.Runner
	// scale repeats every workload scale times (1 = the paper's
	// workloads); see trace.Scale. Set it before the first run.
	scale int

	// traces memoizes per-execution generated traces; device sub-suites
	// share it with their parent, since traces are device independent.
	traces *workload.TraceCache
	// memo memoizes every derived result: simulation cells, per-app
	// experiment rows, and per-device sub-suites.
	memo memo
	// sourceHook, if set, wraps every SourceFor source (a test seam).
	sourceHook func(trace.Source) trace.Source
}

// NewSuite returns a Suite over the given workload seed and simulator
// configuration.
func NewSuite(seed uint64, cfg sim.Config) (*Suite, error) {
	return newSharedSuite(seed, cfg, workload.NewTraceCache())
}

// newSharedSuite builds a Suite around an existing trace cache, so
// derived suites (the per-device sub-suites) reuse generated traces.
func newSharedSuite(seed uint64, cfg sim.Config, traces *workload.TraceCache) (*Suite, error) {
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{
		seed:   seed,
		cfg:    cfg,
		runner: r,
		scale:  1,
		traces: traces,
	}, nil
}

// NewDefaultSuite returns a Suite with the paper's configuration and the
// default seed.
func NewDefaultSuite() *Suite {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the simulator configuration.
func (s *Suite) Config() sim.Config { return s.cfg }

// Seed returns the workload seed.
func (s *Suite) Seed() uint64 { return s.seed }

// Apps returns the paper's six applications.
func (s *Suite) Apps() []*workload.App { return workload.Apps() }

// Traces returns (and caches) all execution traces of app. The slice is
// shared read-only across every policy run: traces are replayed, never
// mutated.
func (s *Suite) Traces(app *workload.App) []*trace.Trace {
	return s.traces.Traces(app, s.seed)
}

// SourceFor returns a fresh trace source over app's workload, scaled by
// the suite's scale factor. In the default (pinned) cache mode all
// sources of one app share each execution's single generation, made
// when the first source reaches it; in on-demand mode each source
// regenerates its executions as it is consumed. Every call
// returns an independent iterator — sources are single-goroutine values.
func (s *Suite) SourceFor(app *workload.App) trace.Source {
	src := trace.Scale(s.traces.Source(app, s.seed), s.scale)
	if s.sourceHook != nil {
		return s.sourceHook(src)
	}
	return src
}

// SetScale makes every policy run consume the workload scale times over
// (see trace.Scale; scale 1 — the default — is byte-for-byte the paper's
// workload). Set it before the first run: results are memoized, so
// changing the scale mid-suite would mix scales in one output.
func (s *Suite) SetScale(scale int) {
	if scale < 1 {
		scale = 1
	}
	s.scale = scale
}

// Scale returns the suite's workload scale factor.
func (s *Suite) Scale() int { return s.scale }

// SetOnDemand switches the shared trace cache between pinned slices (the
// default) and regenerate-on-demand streaming, which holds at most one
// execution of one app in memory per concurrent run. Like SetScale, set
// it before the first run.
func (s *Suite) SetOnDemand(v bool) { s.traces.SetOnDemand(v) }

// RetainPrepared makes the suite's runner keep every pinned execution
// it prepares (sim.Runner.RetainPrepared), so repeated runs over the
// same traces skip the file-cache filter. It suits a long-lived owner
// that replays the same workloads again and again, as pcapd's shared
// suites do; a suite that runs each cell once gains nothing and pays the
// memory. Like SetScale, call it before the first run.
func (s *Suite) RetainPrepared() { s.runner.RetainPrepared() }

// OnDemand reports whether the suite streams workloads on demand.
func (s *Suite) OnDemand() bool { return s.traces.OnDemand() }

// Run simulates app under pol, memoized by (app, policy name). Concurrent
// callers of the same cell block on one simulation and share its result.
// A cell in a TasksFor pass is computed by that pass, which Run starts or
// waits for (see cellPass).
func (s *Suite) Run(app *workload.App, pol sim.Policy) (*sim.AppResult, error) {
	return s.cell("run/"+app.Name+"/"+pol.Name, s.runner, app, pol)
}

// cell is Run on runner, memoized under key.
func (s *Suite) cell(key string, runner *sim.Runner, app *workload.App, pol sim.Policy) (*sim.AppResult, error) {
	v, err := s.memo.do(key, func() (any, error) {
		res, err := runner.RunSource(s.SourceFor(app), pol)
		if err != nil {
			return nil, cellError(app, pol, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sim.AppResult), nil
}

// --- Standard policies -----------------------------------------------

// PolicyBase never shuts the disk down (Figure 8's "Base").
func (s *Suite) PolicyBase() sim.Policy {
	return sim.Policy{
		Name:       "Base",
		NewFactory: func() predictor.Factory { return predictor.AlwaysOn{} },
	}
}

// PolicyIdeal shuts down exactly at the start of every long global idle
// period (Figure 8's "Ideal").
func (s *Suite) PolicyIdeal() sim.Policy {
	breakeven := s.cfg.Disk.Breakeven
	return sim.Policy{
		Name:         "Ideal",
		NewFactory:   func() predictor.Factory { return predictor.NewOracle(breakeven) },
		GlobalOracle: true,
	}
}

// tpTimeout is the paper's timeout predictor timer.
const tpTimeout = 10 * trace.Second

// PolicyTP is the paper's 10-second timeout predictor.
func (s *Suite) PolicyTP() sim.Policy { return s.PolicyTPWith("TP", tpTimeout) }

// PolicyTPWith is a timeout predictor with an explicit timer.
func (s *Suite) PolicyTPWith(name string, timeout trace.Time) sim.Policy {
	return sim.Policy{
		Name:       name,
		NewFactory: func() predictor.Factory { return predictor.NewTimeout(timeout) },
	}
}

// PolicyLT is the Learning Tree with tree reuse across executions.
func (s *Suite) PolicyLT() sim.Policy {
	return sim.Policy{
		Name:       "LT",
		NewFactory: func() predictor.Factory { return ltree.MustNew(s.ltConfig()) },
		Reuse:      true,
	}
}

// PolicyLTa is the Learning Tree discarding its tree after every
// execution (Figure 10's LTa).
func (s *Suite) PolicyLTa() sim.Policy {
	return sim.Policy{
		Name:       "LTa",
		NewFactory: func() predictor.Factory { return ltree.MustNew(s.ltConfig()) },
	}
}

func (s *Suite) ltConfig() ltree.Config {
	cfg := ltree.DefaultConfig()
	cfg.Breakeven = s.cfg.Disk.Breakeven
	cfg.WaitWindow = s.waitWindow()
	return cfg
}

// waitWindow returns the paper's 1 s sliding wait-window, scaled down for
// devices whose breakeven time is itself below a second (e.g. a wireless
// interface): the window must leave room for the shutdown to pay off.
func (s *Suite) waitWindow() trace.Time {
	w := trace.Second
	if half := s.cfg.Disk.Breakeven / 2; half < w {
		w = half
	}
	return w
}

// PolicyPCAP is a PCAP variant with prediction-table reuse.
func (s *Suite) PolicyPCAP(v core.Variant) sim.Policy {
	return sim.Policy{
		Name:       v.String(),
		NewFactory: func() predictor.Factory { return core.MustNew(s.pcapConfig(v)) },
		Reuse:      true,
	}
}

// PolicyPCAPa is base PCAP discarding its table after every execution
// (Figure 10's PCAPa).
func (s *Suite) PolicyPCAPa() sim.Policy {
	return sim.Policy{
		Name:       "PCAPa",
		NewFactory: func() predictor.Factory { return core.MustNew(s.pcapConfig(core.VariantBase)) },
	}
}

func (s *Suite) pcapConfig(v core.Variant) core.Config {
	cfg := core.DefaultConfig(v)
	cfg.Breakeven = s.cfg.Disk.Breakeven
	cfg.WaitWindow = s.waitWindow()
	return cfg
}
