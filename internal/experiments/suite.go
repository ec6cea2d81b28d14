// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6): it wires the synthetic workloads, the file
// cache, the disk model, the predictors and the simulator together, one
// driver per experiment, and renders results in the paper's units.
package experiments

import (
	"fmt"
	"sync"

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

// Suite runs policies over the paper's workloads and keeps every result
// in its table, so that figures sharing runs (6/7, 8, 9, 10) do not
// recompute them.
//
// A Suite is safe for concurrent use. Its table maps each simulation cell
// to its slot in one sim.RunCells pass, which runs once however many
// callers want its cells (see engine.go), so RunMatrix can fan the
// evaluation matrix across workers while the renderers read the table.
type Suite struct {
	seed   uint64
	cfg    sim.Config
	runner *sim.Runner
	// scale repeats every workload scale times (1 = the paper's
	// workloads); see trace.Scale. Set it before the first run.
	scale int

	// traces, if set, pins every generated execution for the suite's
	// sources; nil (the default) streams each source's executions with
	// App.Stream. RetainPrepared sets it: a runner retains only pinned
	// executions. Device sub-suites share it with their parent, since
	// traces are device independent.
	traces *workload.TraceCache
	// sourceHook, if set, wraps every SourceFor source (a test seam).
	sourceHook func(trace.Source) trace.Source

	// mu guards the maps below, which fill as experiments are planned.
	mu sync.Mutex
	// cells is the suite's table: every simulation cell's slot.
	cells map[cellKey]slot
	// devs holds the device sweep's sub-suites by device name.
	devs map[string]*Suite
	// prefetched holds the prefetch experiment's rows by application.
	prefetched map[string]*prefetchEntry
}

// NewSuite returns a Suite over the given workload seed and simulator
// configuration. It streams its workloads until RetainPrepared.
func NewSuite(seed uint64, cfg sim.Config) (*Suite, error) {
	r, err := sim.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	return &Suite{seed: seed, cfg: cfg, runner: r, scale: 1}, nil
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

// SourceFor returns a fresh trace source over app's workload, scaled by
// the suite's scale factor. A retaining suite's sources share each
// execution's single pinned generation, made when the first source
// reaches it; any other suite's sources each regenerate their executions
// as they are consumed, holding one at a time. Every call returns an
// independent iterator — sources are single-goroutine values.
func (s *Suite) SourceFor(app *workload.App) trace.Source {
	var src trace.Source = app.Stream(s.seed)
	if s.traces != nil {
		src = s.traces.Source(app, s.seed)
	}
	src = trace.Scale(src, s.scale)
	if s.sourceHook != nil {
		return s.sourceHook(src)
	}
	return src
}

// SetScale makes every policy run consume the workload scale times over
// (see trace.Scale; scale 1 — the default — is byte-for-byte the paper's
// workload). Set it before the first run: results are kept, so
// changing the scale mid-suite would mix scales in one output.
func (s *Suite) SetScale(scale int) {
	if scale < 1 {
		scale = 1
	}
	s.scale = scale
}

// Scale returns the suite's workload scale factor.
func (s *Suite) Scale() int { return s.scale }

// RetainPrepared makes the suite pin its generated workloads and its
// runner keep every pinned execution it prepares
// (sim.Runner.RetainPrepared), so repeated runs over the same traces
// skip generation and the file-cache filter. It suits a long-lived owner
// that replays the same workloads again and again, as pcapd's shared
// suites do; a suite that runs each cell once gains nothing and pays the
// memory. Like SetScale, call it before the first run.
func (s *Suite) RetainPrepared() {
	s.traces = workload.NewTraceCache()
	s.runner.RetainPrepared()
}

// Run returns app's result under pol from the suite's table, running or
// waiting for the pass that holds the cell. A cell the table lacks is
// registered as a one-cell pass first, so concurrent callers of a cell
// share one simulation and one result.
func (s *Suite) Run(app *workload.App, pol sim.Policy) (*sim.AppResult, error) {
	one := &cellPass{s: s, app: app, cells: []sim.Cell{{Runner: s.runner, Policy: pol}}}
	sl := s.register(cellKey{app.Name, pol.Name}, slot{one, 0})
	return sl.p.result(sl.i)
}

// register makes sl the slot of key k unless k has one, and returns k's
// slot.
func (s *Suite) register(k cellKey, sl slot) slot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if have, ok := s.cells[k]; ok {
		return have
	}
	if s.cells == nil {
		s.cells = make(map[cellKey]slot)
	}
	s.cells[k] = sl
	return sl
}

// lookup returns the slot of key k, if the table has one.
func (s *Suite) lookup(k cellKey) (slot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.cells[k]
	return sl, ok
}

// results is how the renderers read cells: app's results under pols, in
// order, from the table, running or waiting for their passes. Unlike Run
// it never adds a cell, so a renderer that reads a cell its experiment
// does not declare fails.
func (s *Suite) results(app *workload.App, pols ...sim.Policy) ([]*sim.AppResult, error) {
	res := make([]*sim.AppResult, len(pols))
	for i, pol := range pols {
		sl, ok := s.lookup(cellKey{app.Name, pol.Name})
		if !ok {
			return nil, notRun(app.Name + " under " + pol.Name)
		}
		var err error
		if res[i], err = sl.p.result(sl.i); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// notRun rejects a read of a result that no run of the suite has planned.
func notRun(what string) error {
	return fmt.Errorf("experiments: %s has not been run (RunMatrix or render its experiment first)", what)
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
