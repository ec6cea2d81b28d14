package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/sim"
	"pcapsim/internal/workload"
)

// The parallel experiment engine.
//
// Every result in the suite is memoized behind a singleflight cache keyed
// by a deterministic name, and every experiment decomposes into Tasks that
// do nothing but warm those caches. RunMatrix fans the tasks across a
// worker pool; the renderers then read exclusively from warm caches in a
// fixed serial order. Because each task is a pure function of (seed,
// config) and tasks share no mutable state, the rendered output is
// byte-identical at any worker count — same seed, same bytes, whether the
// suite ran serially or on every core.

// memo is a singleflight-style result cache: the first caller of a key
// computes it, concurrent callers of the same key block on that
// computation, and every caller observes the same value and error.
type memo struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

type memoEntry struct {
	once sync.Once
	fn   func() (any, error) // set by register: computes in place of do's fn
	val  any
	err  error
}

// has reports whether key has an entry.
func (c *memo) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.m[key]
	return ok
}

// register makes fn the computation of key unless key already has an
// entry.
func (c *memo) register(key string, fn func() (any, error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry)
	}
	if _, ok := c.m[key]; !ok {
		c.m[key] = &memoEntry{fn: fn}
	}
}

// do returns the memoized value for key, computing it with the registered
// computation, else fn, on first use — exactly once even under concurrent
// callers.
func (c *memo) do(key string, fn func() (any, error)) (any, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]*memoEntry)
	}
	e, ok := c.m[key]
	if !ok {
		e = &memoEntry{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		if e.fn != nil {
			fn = e.fn
		}
		e.val, e.err = fn()
	})
	return e.val, e.err
}

// Task is one memoizable unit of the evaluation matrix — typically one
// (application, policy) simulation cell or one derived per-application
// experiment row.
type Task struct {
	// Name identifies the unit ("run/mozilla/PCAP", "prefetch/nedit", …).
	Name string
	run  func() error
}

// ExperimentNames returns every experiment in the canonical order the CLI
// renders them.
func ExperimentNames() []string {
	return []string{
		"table1", "table2", "table3",
		"fig6", "fig7", "fig8", "fig9", "fig10",
		"tpsweep", "multistate", "predictors", "devices", "prefetch",
	}
}

// taskList accumulates tasks, deduplicating by name so experiments that
// share cells (e.g. every figure's Base runs) enqueue them once, and
// collects the simulation cells for split.
type taskList struct {
	seen   map[string]bool
	tasks  []Task
	cells  []listCell
	passes []*cellPass
	next   atomic.Int64 // index of the next pass to start
}

// listCell is a simulation cell that suite s memoizes under key.
type listCell struct {
	s    *Suite
	app  *workload.App
	key  string
	cell sim.Cell
}

// add enqueues a task unless one of that name exists, and reports
// whether it did.
func (l *taskList) add(name string, run func() error) bool {
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	if l.seen[name] {
		return false
	}
	l.seen[name] = true
	l.tasks = append(l.tasks, Task{Name: name, run: run})
	return true
}

// addRun enqueues one simulation cell on suite target (the main suite or a
// per-device sub-suite, disambiguated by prefix) unless target already
// has that cell under another prefix. The task runs passes until none is
// left to start, then returns its own cell's result.
func (l *taskList) addRun(prefix string, target *Suite, app *workload.App, pol sim.Policy) {
	key := "run/" + app.Name + "/" + pol.Name
	if slices.ContainsFunc(l.cells, func(c listCell) bool { return c.s == target && c.key == key }) {
		return
	}
	l.add(prefix+key, func() error {
		l.work()
		_, err := target.Run(app, pol)
		return err
	})
	l.cells = append(l.cells, listCell{target, app, key, sim.Cell{Runner: target.runner, Policy: pol}})
}

// split divides each application's cells that have no memo entry yet into
// at most workers passes of consecutive cells, so one application's cells
// can run side by side. Main-suite, dev/* and PCAP+lp cells share the
// file-cache config, so a pass prepares each execution once for all its
// cells (DESIGN.md §8). Each cell's memo entry takes its result from its
// pass.
func (l *taskList) split(workers int) {
	for _, app := range workload.Apps() {
		var cells []listCell
		for _, c := range l.cells {
			if c.app == app && !c.s.memo.has(c.key) {
				cells = append(cells, c)
			}
		}
		for j, k := 0, min(len(cells), workers); j < k; j++ {
			part := cells[j*len(cells)/k : (j+1)*len(cells)/k]
			p := &cellPass{s: part[0].s, app: app}
			for _, c := range part {
				p.cells = append(p.cells, c.cell)
			}
			for i, c := range part {
				c.s.memo.register(c.key, func() (any, error) { return p.result(i) })
			}
			l.passes = append(l.passes, p)
		}
	}
}

// cellPass is one sim.RunCells pass over cells of app.
type cellPass struct {
	s     *Suite // whose SourceFor feeds the pass
	app   *workload.App
	cells []sim.Cell
	once  sync.Once
	res   []*sim.AppResult
	errs  []error
}

// result runs the pass, or waits for it, and returns cell i's outcome.
func (p *cellPass) result(i int) (any, error) {
	p.once.Do(func() { p.res, p.errs = sim.RunCells(p.s.SourceFor(p.app), p.cells) })
	if p.errs[i] != nil {
		return nil, cellError(p.app, p.cells[i].Policy, p.errs[i])
	}
	return p.res[i], nil
}

// cellError labels a failed cell's error with its app and policy.
func cellError(app *workload.App, pol sim.Policy, err error) error {
	return fmt.Errorf("experiments: %s under %s: %w", app.Name, pol.Name, err)
}

// work runs the passes nobody has started, in registration order, until
// none is left; cell errors are left to the cells' own tasks.
func (l *taskList) work() {
	for i := int(l.next.Add(1)) - 1; i < len(l.passes); i = int(l.next.Add(1)) - 1 {
		_, _ = l.passes[i].result(0)
	}
}

// TasksFor returns the cells needed by the named experiments.
func (s *Suite) TasksFor(exps ...string) ([]Task, error) {
	var l taskList
	for _, e := range exps {
		if err := s.appendTasks(&l, e); err != nil {
			return nil, err
		}
	}
	// No more passes than CPUs can run at once.
	l.split(runtime.GOMAXPROCS(0))
	return l.tasks, nil
}

// appendTasks enqueues one experiment's cells.
func (s *Suite) appendTasks(l *taskList, exp string) error {
	grid := func(pols []sim.Policy) {
		for _, app := range s.Apps() {
			for _, p := range pols {
				l.addRun("", s, app, p)
			}
		}
	}
	perApp := func(kind string, run func(app *workload.App) error) {
		for _, app := range s.Apps() {
			app := app
			l.add(kind+"/"+app.Name, func() error { return run(app) })
		}
	}
	switch exp {
	case "table1":
		grid([]sim.Policy{s.PolicyBase()})
	case "table2":
		// Pure configuration rendering: nothing to simulate.
	case "table3":
		grid(s.table3Policies())
	case "fig6", "fig7":
		grid(s.fig67Policies())
	case "fig8":
		grid(s.fig8Policies())
	case "fig9":
		grid(s.fig9Policies())
	case "fig10":
		grid(s.fig10Policies())
	case "tpsweep":
		pols := []sim.Policy{s.PolicyBase()}
		pols = append(pols, s.tpSweepPolicies()...)
		grid(pols)
	case "multistate":
		grid([]sim.Policy{s.PolicyBase(), s.PolicyPCAP(core.VariantBase)})
		lp, err := s.lowPowerRunner()
		if err != nil {
			return err
		}
		for _, app := range s.Apps() {
			app := app
			if l.add("multistate/"+app.Name, func() error {
				_, err := s.multiStateRow(app)
				return err
			}) {
				l.cells = append(l.cells, listCell{s, app, lowPowerKey(app), sim.Cell{Runner: lp, Policy: s.policyLowPower()}})
			}
		}
	case "predictors":
		grid(append([]sim.Policy{s.PolicyBase()}, s.predictorPolicies()...))
	case "devices":
		for _, dev := range disk.Devices() {
			ds, err := s.deviceSuite(dev)
			if err != nil {
				return err
			}
			for _, app := range ds.Apps() {
				for _, p := range ds.devicePolicies() {
					l.addRun("dev/"+dev.Name+"/", ds, app, p)
				}
			}
		}
	case "prefetch":
		perApp("prefetch", func(app *workload.App) error {
			_, err := s.prefetchRow(app)
			return err
		})
	default:
		return fmt.Errorf("experiments: unknown experiment %q", exp)
	}
	return nil
}

// RunMatrix fans the evaluation matrix of the named experiments (all of
// them when none are given) across parallel workers, warming every
// memoized cell. parallel < 1 selects GOMAXPROCS. The subsequent
// renderers read the warm caches serially, so output is byte-identical to
// a fully serial run.
func (s *Suite) RunMatrix(parallel int, exps ...string) error {
	if len(exps) == 0 {
		exps = ExperimentNames()
	}
	tasks, err := s.TasksFor(exps...)
	if err != nil {
		return err
	}
	return RunTasks(tasks, parallel)
}

// RunTasks executes tasks on a pool of parallel workers and returns the
// first error in task order (deterministic regardless of which worker hit
// it first).
func RunTasks(tasks []Task, parallel int) error {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(tasks) {
		parallel = len(tasks)
	}
	if parallel <= 1 {
		for _, t := range tasks {
			if err := t.run(); err != nil {
				return fmt.Errorf("experiments: task %s: %w", t.Name, err)
			}
		}
		return nil
	}
	errs := make([]error, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = tasks[i].run()
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("experiments: task %s: %w", tasks[i].Name, err)
		}
	}
	return nil
}

// RenderExperiment renders one named experiment as text. Accuracy figures
// render as stacked bars instead of tables when bars is set.
func (s *Suite) RenderExperiment(name string, bars bool) (string, error) {
	renderAcc := func(f *AccuracyFigure, err error) (string, error) {
		if err != nil {
			return "", err
		}
		if bars {
			return f.RenderBars(), nil
		}
		return f.Render(), nil
	}
	switch name {
	case "table1":
		return s.RenderTable1()
	case "table2":
		return s.RenderTable2(), nil
	case "table3":
		return s.RenderTable3()
	case "fig6":
		return renderAcc(s.Fig6())
	case "fig7":
		return renderAcc(s.Fig7())
	case "fig8":
		f, err := s.Fig8()
		if err != nil {
			return "", err
		}
		return f.Render(), nil
	case "fig9":
		return renderAcc(s.Fig9())
	case "fig10":
		return renderAcc(s.Fig10())
	case "tpsweep":
		return s.RenderTPSweep()
	case "multistate":
		return s.RenderMultiState()
	case "predictors":
		return s.RenderPredictors()
	case "devices":
		return s.RenderDevices()
	case "prefetch":
		return s.RenderPrefetch()
	default:
		return "", fmt.Errorf("experiments: unknown experiment %q", name)
	}
}

// RenderAll renders the named experiments (all of them when none are
// given) in canonical order, separated by blank lines — the CLI's full
// output and the differential determinism test's unit of comparison.
func (s *Suite) RenderAll(bars bool, names ...string) (string, error) {
	if len(names) == 0 {
		names = ExperimentNames()
	}
	var b strings.Builder
	for _, name := range names {
		out, err := s.RenderExperiment(name, bars)
		if err != nil {
			return "", err
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	return b.String(), nil
}
