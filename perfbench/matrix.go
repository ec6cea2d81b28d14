package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
)

// The matrix workload is what `pcapsim -exp all` does: a fresh Suite at
// the workload seed, RunMatrix over all 13 experiments at one worker per
// CPU, then every RenderExperiment. Each operation starts cold — trace
// generation included — because a CLI user pays it on every run. Every
// (app, trace) is simulated under many policies, so this is the workload
// where work shared between policies (the file cache filter prefix) and
// the experiment engine's scheduling show.

// defaultSeed is the seed the committed goldens were produced with.
const defaultSeed = experiments.DefaultSeed

// setupReps is how many times each workload repeats its set-up; setup_s
// reports the median.
const setupReps = 5

const goldenPath = "internal/experiments/testdata/suite.golden"

func runMatrix(e *env) (*report, error) {
	rep := newReport()
	workers := runtime.NumCPU()
	var golden []byte
	if e.seed == defaultSeed {
		b, err := os.ReadFile(filepath.Join(e.root, goldenPath))
		if err != nil {
			return nil, fmt.Errorf("reading the expected output: %w", err)
		}
		golden = b
	}

	// Set-up: a warm-up that generates every app's traces and simulates
	// Table 1's cells on a throwaway suite, so code and heap are warm
	// before the first timed operation.
	var setups []time.Duration
	for range setupReps {
		debug.FreeOSMemory()
		start := time.Now()
		s, err := experiments.NewSuite(e.seed, sim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		if err := s.RunMatrix(workers, "table1"); err != nil {
			return nil, err
		}
		if _, err := s.RenderExperiment("table1", false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	e.logSetups(setups)

	chk := &matrixCheck{golden: golden}
	m := &matrixLoop{e: e, workers: workers, chk: chk, rep: rep}
	untraced, err := m.loop(nil)
	if err != nil {
		return nil, err
	}
	if !e.traced {
		rep.setSequential(setups, untraced, m.ios)
		e.logf("matrix_s %.4f s (median of %d suites); work is simulated pre-cache I/Os, %d per suite", median(seconds(untraced.times)), len(untraced.times), m.ios)
		return rep, nil
	}

	tr := newTracer()
	traced, err := m.loop(tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(e.dir, fmt.Sprintf("spans-matrix-%d.jsonl", e.seed)), spans, e.log); err != nil {
		return nil, err
	}
	s, err := experiments.NewSuite(e.seed, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var inputs []genInput
	for _, app := range s.Apps() {
		for x := range app.Executions {
			inputs = append(inputs, genInput{app: app, seed: e.seed, exec: x})
		}
	}
	iso, err := isolate(inputs, s, e.dir)
	if err != nil {
		return nil, err
	}

	layers := byName(spans)
	ops := float64(layers[spanOp].count)
	perOp := func(name string) time.Duration { return time.Duration(float64(layers[name].total) / ops) }
	rep.setIsolation(iso)
	rep.setSim(m.cells, m.ios, perOp("sim.run"), iso)
	rep.set("experiments.render_s", perOp("experiments.render").Seconds(), "s")
	rep.set("bench.trace_overhead_frac", median(seconds(traced.times))/median(seconds(untraced.times))-1, "ratio")
	rep.set("bench.unattributed_frac", unattributed(layers), "ratio")

	pool := layers[spanPool]
	busy := layers["workload.gen"].total + layers["sim.run"].total + layers["experiments.row"].total
	capacity := time.Duration(workers) * pool.total
	e.logf("workload.gen_s %.4f s per suite (traces/* tasks)", perOp("workload.gen").Seconds())
	e.logf("experiments.row_s %.4f s per suite (multistate/* and prefetch/* tasks)", perOp("experiments.row").Seconds())
	e.logf("experiments.idle_frac %.4f (worker time outside task spans, %d workers)", float64(capacity-busy)/float64(capacity), workers)
	share := rep.Metrics["fscache.filter_share"].Value
	e.logf("prefix-sharing ceiling %.4f of sim.cell_s: filter_share %.4f x (1 - %d distinct executions / %d filtered per suite)",
		share*(1-float64(m.distinct)/float64(m.filtered)), share, m.distinct, m.filtered)
	return rep, nil
}

// matrixLoop runs matrix operations until the window has passed.
type matrixLoop struct {
	e       *env
	workers int
	chk     *matrixCheck
	rep     *report
	ops     int

	// Exact per-suite counts, from the first operation's task list:
	// simulation cells, the pre-cache I/Os they simulate, and how many
	// executions they filter in total and distinct.
	cells, ios, filtered, distinct int
}

// loop runs operations for one window.
func (m *matrixLoop) loop(tr *tracer) (*opStats, error) {
	return sequential(m.e.window, m.rep, func() (time.Duration, error, error) {
		m.ops++
		d, s, out, tasks, err := matrixOp(m.e.seed, m.workers, tr, m.ops)
		if err != nil {
			return 0, nil, err
		}
		if m.cells == 0 {
			if err := m.count(s, tasks); err != nil {
				return 0, nil, err
			}
		}
		return d, m.chk.check(s, m.e.output(m.ops, out)), nil
	})
}

// matrixOp runs one timed operation: a fresh suite, the full matrix at
// workers, and all 13 renders. With a tracer, the matrix runs on the
// benchmark's own pool so each task gets a span.
func matrixOp(seed uint64, workers int, tr *tracer, op int) (time.Duration, *experiments.Suite, string, []experiments.Task, error) {
	start := time.Now()
	sp := tr.begin(spanOp, 0, op)
	s, err := experiments.NewSuite(seed, sim.DefaultConfig())
	if err != nil {
		return 0, nil, "", nil, err
	}
	tasks, err := s.TasksFor(experiments.ExperimentNames()...)
	if err != nil {
		return 0, nil, "", nil, err
	}
	if tr == nil {
		err = experiments.RunTasks(tasks, workers)
	} else {
		err = tracedTasks(tasks, workers, tr, sp, op)
	}
	if err != nil {
		return 0, nil, "", nil, err
	}
	var b strings.Builder
	for _, name := range experiments.ExperimentNames() {
		r := tr.begin("experiments.render", sp, op)
		out, err := s.RenderExperiment(name, false)
		tr.end(r)
		if err != nil {
			return 0, nil, "", nil, err
		}
		b.WriteString(out)
		b.WriteString("\n")
	}
	tr.end(sp)
	return time.Since(start), s, b.String(), tasks, nil
}

// tracedTasks runs tasks the way experiments.RunTasks does — workers
// pulling task indices from one channel — with a span per worker and per
// task. It returns the first error in task order.
func tracedTasks(tasks []experiments.Task, workers int, tr *tracer, parent, op int) error {
	pool := tr.begin(spanPool, parent, op)
	defer tr.end(pool)
	errs := make([]error, len(tasks))
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := tr.begin(spanWorker, pool, op)
			defer tr.end(w)
			for i := range idx {
				t := tr.begin(taskLayer(tasks[i].Name), w, op)
				errs[i] = experiments.RunTasks(tasks[i:i+1], 1)
				tr.end(t)
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// taskLayer names the layer a matrix task exercises.
func taskLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "traces/"):
		return "workload.gen"
	case strings.HasPrefix(name, "run/"), strings.Contains(name, "/run/"):
		return "sim.run"
	default:
		return "experiments.row"
	}
}

// count derives the exact per-suite counts from the task list: every
// run/ cell (main suite and device sub-suites) simulates, and filters,
// every execution of its app.
func (m *matrixLoop) count(s *experiments.Suite, tasks []experiments.Task) error {
	ios := make(map[string]int)
	for _, app := range s.Apps() {
		res, err := s.Run(app, s.PolicyBase())
		if err != nil {
			return err
		}
		ios[app.Name] = res.TotalIOs
		m.distinct += app.Executions
	}
	execs := make(map[string]int)
	for _, app := range s.Apps() {
		execs[app.Name] = app.Executions
	}
	for _, t := range tasks {
		if taskLayer(t.Name) != "sim.run" {
			continue
		}
		parts := strings.Split(t.Name, "/")
		app := parts[len(parts)-2]
		m.cells++
		m.ios += ios[app]
		m.filtered += execs[app]
	}
	if m.cells == 0 || m.ios == 0 {
		return fmt.Errorf("matrix task list has no simulation cells")
	}
	return nil
}

// matrixCheck verifies a matrix operation's output.
type matrixCheck struct {
	golden []byte // expected render at the default seed, else nil
	first  [sha256.Size]byte
	seen   bool
}

// check compares the render with the golden file (at the default seed)
// and with the first operation's digest, and checks that the oracle's
// energy is a lower bound on every online policy's, per app.
func (c *matrixCheck) check(s *experiments.Suite, out string) error {
	if c.golden != nil && out != string(c.golden) {
		return fmt.Errorf("matrix: render differs from %s", goldenPath)
	}
	sum := sha256.Sum256([]byte(out))
	if !c.seen {
		c.first, c.seen = sum, true
	} else if sum != c.first {
		return fmt.Errorf("matrix: render digest %x differs from the first operation's %x", sum[:8], c.first[:8])
	}
	for _, app := range s.Apps() {
		ideal, err := s.Run(app, s.PolicyIdeal())
		if err != nil {
			return err
		}
		for _, name := range experiments.ReplayPolicyNames() {
			pol, _ := s.PolicyByName(name)
			if pol.GlobalOracle {
				continue
			}
			res, err := s.Run(app, pol)
			if err != nil {
				return err
			}
			if ideal.Energy.Total() > res.Energy.Total() {
				return fmt.Errorf("matrix: %s: Ideal energy %.3f J exceeds %s's %.3f J",
					app.Name, ideal.Energy.Total(), pol.Name, res.Energy.Total())
			}
		}
	}
	return nil
}
