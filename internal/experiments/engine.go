package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pcapsim/internal/sim"
	"pcapsim/internal/workload"
)

// The experiment engine.
//
// Each experiment is declared once, in experimentTable: its name, the
// cells and rows its renderer reads, and the renderer. A cell is one
// (application, policy) simulation of a suite. The suite's table maps
// each cell to its index in a cellPass, one sim.RunCells pass over the
// application's executions, and nothing else computes a cell. TasksFor
// groups the named experiments' missing cells into passes and returns a
// Task per cell and per derived row; RunMatrix runs the tasks on a
// worker pool. The renderers only read the table, serially and in a
// fixed order, so the output is byte-identical at any worker count.

// experiment declares one experiment. plan adds the cells and rows its
// renderer reads to a task list (nil: it reads none); render reads them
// back from the suite's table.
type experiment struct {
	name   string
	plan   func(s *Suite, l *taskList) error
	render func(s *Suite, bars bool) (string, error)
}

// experimentTable is every experiment, in the canonical order the CLI
// renders them.
var experimentTable = []experiment{
	{"table1", grid((*Suite).basePolicies), text((*Suite).RenderTable1)},
	{"table2", nil, func(s *Suite, _ bool) (string, error) { return s.RenderTable2(), nil }},
	{"table3", grid((*Suite).table3Policies), text((*Suite).RenderTable3)},
	{"fig6", grid((*Suite).fig67Policies), figure((*Suite).Fig6)},
	{"fig7", grid((*Suite).fig67Policies), figure((*Suite).Fig7)},
	{"fig8", grid((*Suite).fig8Policies), figure((*Suite).Fig8)},
	{"fig9", grid((*Suite).fig9Policies), figure((*Suite).Fig9)},
	{"fig10", grid((*Suite).fig10Policies), figure((*Suite).Fig10)},
	{"tpsweep", grid((*Suite).basePolicies, (*Suite).tpSweepPolicies), text((*Suite).RenderTPSweep)},
	{"multistate", (*Suite).planMultiState, text((*Suite).RenderMultiState)},
	{"predictors", grid((*Suite).basePolicies, (*Suite).predictorPolicies), text((*Suite).RenderPredictors)},
	{"devices", (*Suite).planDevices, text((*Suite).RenderDevices)},
	{"prefetch", (*Suite).planPrefetch, text((*Suite).RenderPrefetch)},
}

// grid plans every application's cells under the policies pols list, in
// that order, on the suite's own runner.
func grid(pols ...func(*Suite) []sim.Policy) func(*Suite, *taskList) error {
	return func(s *Suite, l *taskList) error {
		var all []sim.Policy
		for _, p := range pols {
			all = append(all, p(s)...)
		}
		l.grid(s, all)
		return nil
	}
}

// text adapts a renderer that has no bar form.
func text(render func(*Suite) (string, error)) func(*Suite, bool) (string, error) {
	return func(s *Suite, _ bool) (string, error) { return render(s) }
}

// figure renders a figure as a table, or as stacked bars when bars is
// set and the figure has a bar form (the accuracy figures).
func figure[F interface{ Render() string }](fig func(*Suite) (F, error)) func(*Suite, bool) (string, error) {
	return func(s *Suite, bars bool) (string, error) {
		f, err := fig(s)
		if err != nil {
			return "", err
		}
		if b, ok := any(f).(interface{ RenderBars() string }); ok && bars {
			return b.RenderBars(), nil
		}
		return f.Render(), nil
	}
}

// ExperimentNames returns every experiment in the canonical order the CLI
// renders them.
func ExperimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// findExperiment returns the named experiment's declaration.
func findExperiment(name string) (*experiment, error) {
	i := slices.IndexFunc(experimentTable, func(e experiment) bool { return e.name == name })
	if i < 0 {
		return nil, fmt.Errorf("experiments: unknown experiment %q", name)
	}
	return &experimentTable[i], nil
}

// Task is one unit of the evaluation matrix — one (application, policy)
// simulation cell or one derived per-application experiment row.
type Task struct {
	// Name identifies the unit ("run/mozilla/PCAP", "prefetch/nedit", …).
	Name string
	run  func() error
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

// listCell is a simulation cell of suite s.
type listCell struct {
	s    *Suite
	app  *workload.App
	cell sim.Cell
}

func (c listCell) key() cellKey { return cellKey{c.app.Name, c.cell.Policy.Name} }

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

// grid enqueues every application's cells under pols on suite s.
func (l *taskList) grid(s *Suite, pols []sim.Policy) {
	for _, app := range s.Apps() {
		for _, p := range pols {
			l.addRun("", s, app, p)
		}
	}
}

// addRun enqueues one simulation cell on suite target (the main suite or a
// per-device sub-suite, disambiguated by prefix) unless target already
// has that cell under another prefix. The task runs passes until none is
// left to start, then returns its own cell's result.
func (l *taskList) addRun(prefix string, target *Suite, app *workload.App, pol sim.Policy) {
	c := listCell{target, app, sim.Cell{Runner: target.runner, Policy: pol}}
	if slices.ContainsFunc(l.cells, func(o listCell) bool { return o.s == target && o.key() == c.key() }) {
		return
	}
	l.add(prefix+"run/"+app.Name+"/"+pol.Name, func() error {
		l.work()
		_, err := target.results(app, pol)
		return err
	})
	l.cells = append(l.cells, c)
}

// split divides each application's cells that are not in their suite's
// table yet into at most workers passes of consecutive cells, so one
// application's cells can run side by side. Main-suite, dev/* and
// PCAP+lp cells share the file-cache config, so a pass prepares each
// execution once for all its cells (DESIGN.md §8). Each cell's table
// entry is its slot in its pass.
func (l *taskList) split(workers int) {
	for _, app := range workload.Apps() {
		var cells []listCell
		for _, c := range l.cells {
			if c.app != app {
				continue
			}
			if _, ok := c.s.lookup(c.key()); !ok {
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
				c.s.register(c.key(), slot{p, i})
			}
			l.passes = append(l.passes, p)
		}
	}
}

// cellKey names a cell in its suite's table.
type cellKey struct{ app, policy string }

// slot locates a cell's result: index i of pass p.
type slot struct {
	p *cellPass
	i int
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
func (p *cellPass) result(i int) (*sim.AppResult, error) {
	p.once.Do(func() { p.res, p.errs = sim.RunCells(p.s.SourceFor(p.app), p.cells) })
	if p.errs[i] != nil {
		return nil, fmt.Errorf("experiments: %s under %s: %w", p.app.Name, p.cells[i].Policy.Name, p.errs[i])
	}
	return p.res[i], nil
}

// work runs the passes nobody has started, in registration order, until
// none is left; cell errors are left to the cells' own tasks.
func (l *taskList) work() {
	for i := int(l.next.Add(1)) - 1; i < len(l.passes); i = int(l.next.Add(1)) - 1 {
		_, _ = l.passes[i].result(0)
	}
}

// plan enqueues the named experiments' cells and rows.
func (s *Suite) plan(l *taskList, exps ...string) error {
	for _, name := range exps {
		e, err := findExperiment(name)
		if err != nil {
			return err
		}
		if e.plan != nil {
			if err := e.plan(s, l); err != nil {
				return err
			}
		}
	}
	return nil
}

// TasksFor returns the cells and rows the named experiments read. Cells
// the suite's table lacks are grouped into passes that the tasks run.
func (s *Suite) TasksFor(exps ...string) ([]Task, error) {
	var l taskList
	if err := s.plan(&l, exps...); err != nil {
		return nil, err
	}
	// No more passes than CPUs can run at once.
	l.split(runtime.GOMAXPROCS(0))
	return l.tasks, nil
}

// RunMatrix fans the evaluation matrix of the named experiments (all of
// them when none are given) across parallel workers, filling the suite's
// table. parallel < 1 selects GOMAXPROCS. The renderers then read the
// table serially, so output is the same at any worker count.
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

// RenderExperiment renders one named experiment as text, first running
// whatever of its matrix the suite's table lacks (nothing, once
// RunMatrix has run it). Accuracy figures render as stacked bars instead
// of tables when bars is set.
func (s *Suite) RenderExperiment(name string, bars bool) (string, error) {
	e, err := findExperiment(name)
	if err != nil {
		return "", err
	}
	if err := s.RunMatrix(0, name); err != nil {
		return "", err
	}
	return e.render(s, bars)
}

// RenderAll renders the named experiments (all of them when none are
// given) in canonical order, separated by blank lines — the CLI's full
// output and the differential determinism test's unit of comparison. It
// first runs whatever of their matrix the suite's table lacks, in one
// RunMatrix so that the experiments share passes.
func (s *Suite) RenderAll(bars bool, names ...string) (string, error) {
	if len(names) == 0 {
		names = ExperimentNames()
	}
	if err := s.RunMatrix(0, names...); err != nil {
		return "", err
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
