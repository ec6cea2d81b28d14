package experiments

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/disk"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from this run's output")

// goldenPath is the full default-seed suite output, byte for byte.
const goldenPath = "testdata/suite.golden"

// renderFullSuite builds a fresh suite over the default seed and renders
// every experiment. When parallel > 0 the evaluation matrix is warmed by
// RunMatrix on that many workers first; parallel == 0 is the fully serial
// reference path.
func renderFullSuite(t testing.TB, parallel int) string {
	t.Helper()
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if parallel > 0 {
		if err := s.RunMatrix(parallel); err != nil {
			t.Fatalf("RunMatrix(%d): %v", parallel, err)
		}
	}
	out, err := s.RenderAll(false)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffPosition locates the first byte where two renderings diverge and
// formats a readable report around it.
func diffPosition(a, b string) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	line := 1
	for _, c := range a[:i] {
		if c == '\n' {
			line++
		}
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	ctx := func(s string) string {
		hi := i + 40
		if hi > len(s) {
			hi = len(s)
		}
		if lo > len(s) {
			return ""
		}
		return s[lo:hi]
	}
	return fmt.Sprintf("first divergence at byte %d (line %d):\n  a: %q\n  b: %q", i, line, ctx(a), ctx(b))
}

// TestDifferentialDeterminism is the engine's core contract: the full
// suite rendered from the same seed is byte-identical whether the
// evaluation matrix ran serially or across 1, 4 or 8 workers.
func TestDifferentialDeterminism(t *testing.T) {
	serial := renderFullSuite(t, 0)
	if len(serial) < 5000 {
		t.Fatalf("implausibly short suite output (%d bytes)", len(serial))
	}
	workerCounts := []int{1, 4, 8}
	if testing.Short() {
		workerCounts = []int{8}
	}
	for _, workers := range workerCounts {
		workers := workers
		t.Run(fmt.Sprintf("parallel=%d", workers), func(t *testing.T) {
			got := renderFullSuite(t, workers)
			if got != serial {
				t.Errorf("parallel=%d output differs from serial run\n%s", workers, diffPosition(serial, got))
			}
		})
	}

	t.Run("golden", func(t *testing.T) {
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(goldenPath, []byte(serial), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", goldenPath, len(serial))
			return
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with: go test ./internal/experiments -run TestDifferentialDeterminism -update)", err)
		}
		if serial != string(want) {
			t.Errorf("suite output diverged from %s — if the workloads or renderers changed deliberately, rerun with -update\n%s",
				goldenPath, diffPosition(string(want), serial))
		}
	})
}

// pullCounter counts, per application, the sources that simulation
// passes open and the executions they pull.
type pullCounter struct {
	mu      sync.Mutex
	sources map[string]int
	pulls   map[string]int
}

type countedSource struct {
	trace.Source
	c       *pullCounter
	started bool
}

func (cs *countedSource) NextExec() (string, int, bool) {
	app, exec, ok := cs.Source.NextExec()
	if ok {
		cs.c.mu.Lock()
		if !cs.started {
			cs.c.sources[app]++
		}
		cs.c.pulls[app]++
		cs.c.mu.Unlock()
		cs.started = true
	}
	return app, exec, ok
}

func (c *pullCounter) wrap(src trace.Source) trace.Source { return &countedSource{Source: src, c: c} }

// TestRunMatrixSharedCells races RunMatrix against direct Suite.Run calls
// on the main-suite and dev/* cells of nedit and mplayer. Every caller of
// a cell must observe the same memoized result object. At GOMAXPROCS
// procs each app's cells split into procs passes, and each pass must
// pull — and so prepare — every execution exactly once: direct calls
// wait for their cell's pass instead of simulating it again. -short (the
// race pass) trims it to Table 1's cells plus the devices and to one
// worker count.
func TestRunMatrixSharedCells(t *testing.T) {
	exps, workerCounts := []string{"fig8", "devices"}, []int{2, 8}
	if testing.Short() {
		exps, workerCounts = []string{"table1", "devices"}, []int{8}
	}
	// Every app has more cells than procs, so each gets procs passes.
	const procs = 3
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("parallel=%d", workers), func(t *testing.T) {
			s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			pulls := &pullCounter{sources: make(map[string]int), pulls: make(map[string]int)}
			s.sourceHook = pulls.wrap

			// The cells raced: (suite, app, policy) for the main suite's
			// Base and every device's policies.
			type cellCase struct {
				suite *Suite
				app   *workload.App
				pol   sim.Policy
			}
			var cells []cellCase
			for _, name := range []string{"nedit", "mplayer"} {
				app, _ := workload.ByName(name)
				cells = append(cells, cellCase{s, app, s.PolicyBase()})
				for _, dev := range disk.Devices() {
					ds, err := s.deviceSuite(dev)
					if err != nil {
						t.Fatal(err)
					}
					for _, pol := range ds.devicePolicies() {
						cells = append(cells, cellCase{ds, app, pol})
					}
				}
			}

			const callers = 2
			got := make([]*sim.AppResult, len(cells)*callers)
			var wg sync.WaitGroup
			matrixDone := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(matrixDone)
				if err := s.RunMatrix(workers, exps...); err != nil {
					t.Error(err)
				}
			}()
			for i := range got {
				c := cells[i/callers]
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Start once the matrix has registered the cell with
					// its pass: from there on, a direct call must never
					// simulate.
					key := "run/" + c.app.Name + "/" + c.pol.Name
					for !c.suite.memo.has(key) {
						select {
						case <-matrixDone:
							t.Errorf("RunMatrix never registered %s", key)
							return
						default:
							runtime.Gosched()
						}
					}
					res, err := c.suite.Run(c.app, c.pol)
					if err != nil {
						t.Error(err)
						return
					}
					got[i] = res
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			for i, res := range got {
				c := cells[i/callers]
				again, err := c.suite.Run(c.app, c.pol)
				if err != nil {
					t.Fatal(err)
				}
				if res != again {
					t.Errorf("%s under %s (caller %d): distinct result object", c.app.Name, c.pol.Name, i%callers)
				}
			}
			for _, app := range s.Apps() {
				if n := pulls.sources[app.Name]; n != procs {
					t.Errorf("%s: %d sources opened, want one per pass (%d)", app.Name, n, procs)
				}
				if n := pulls.pulls[app.Name]; n != procs*app.Executions {
					t.Errorf("%s: %d executions pulled, want each of %d once per pass (%d)", app.Name, n, app.Executions, procs*app.Executions)
				}
			}
		})
	}
}

// TestGroupCellErrors checks that a failing cell fails only its own memo
// entry and its own task, at any worker count: the rest of its passes
// compute the same results as solo runs.
func TestGroupCellErrors(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallel=%d", workers), func(t *testing.T) {
			s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			app, _ := workload.ByName("nedit")
			boom := s.PolicyPCAP(core.VariantBase)
			boom.Name = "boom"
			boom.RoundTrip = func(predictor.Factory) (predictor.Factory, error) { return nil, errors.New("boom") }
			invalid := sim.Policy{Name: "invalid"}
			good := []sim.Policy{s.PolicyTP(), s.PolicyPCAP(core.VariantBase)}

			// Two passes: {TP, boom} and {invalid, PCAP}.
			var l taskList
			for _, pol := range []sim.Policy{good[0], boom, invalid, good[1]} {
				l.addRun("", s, app, pol)
			}
			l.split(2)
			if len(l.passes) != 2 {
				t.Fatalf("%d passes, want 2", len(l.passes))
			}
			err = RunTasks(l.tasks, workers)
			if want := "experiments: task run/nedit/boom: experiments: nedit under boom:"; err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("RunTasks error = %v, want the first failed cell's own task (%s …)", err, want)
			}
			for _, pol := range []sim.Policy{boom, invalid} {
				if _, err := s.Run(app, pol); err == nil || !strings.Contains(err.Error(), "nedit under "+pol.Name) {
					t.Errorf("%s: err = %v, want the cell's own labelled error", pol.Name, err)
				}
			}
			for _, pol := range good {
				res, err := s.Run(app, pol)
				if err != nil {
					t.Fatalf("%s: %v", pol.Name, err)
				}
				want, err := sim.MustNewRunner(sim.DefaultConfig()).RunSource(s.SourceFor(app), pol)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", want) {
					t.Errorf("%s: grouped result differs from a solo run:\n got %+v\nwant %+v", pol.Name, res, want)
				}
			}
		})
	}
}

// TestTasksForUnknown rejects bad experiment names.
func TestTasksForUnknown(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TasksFor("fig99"); err == nil {
		t.Error("TasksFor(fig99) succeeded")
	}
	if err := s.RunMatrix(2, "nope"); err == nil {
		t.Error("RunMatrix(nope) succeeded")
	}
}

// TestTasksDeduplicate checks that experiments sharing cells enqueue them
// once: fig6 and fig7 use the identical policy grid.
func TestTasksDeduplicate(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.TasksFor("fig6")
	if err != nil {
		t.Fatal(err)
	}
	both, err := s.TasksFor("fig6", "fig7")
	if err != nil {
		t.Fatal(err)
	}
	if len(both) != len(one) {
		t.Errorf("fig6+fig7 yields %d tasks, fig6 alone %d — grids should fully dedupe", len(both), len(one))
	}
	seen := map[string]bool{}
	for _, task := range both {
		if seen[task.Name] {
			t.Errorf("duplicate task %s", task.Name)
		}
		seen[task.Name] = true
	}
}

// TestMatrixCellsSimulatedOnce: no cell of the full matrix is simulated
// twice. The sweep's 10 s timer is the TP cell, the suite's own drive in
// the device sweep is the suite itself, and each (suite, memo key) joins
// the passes once. Both reuses return what the cells they replace did.
func TestMatrixCellsSimulatedOnce(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var l taskList
	for _, e := range ExperimentNames() {
		if err := s.appendTasks(&l, e); err != nil {
			t.Fatal(err)
		}
	}
	type cellID struct {
		s   *Suite
		key string
	}
	seen := make(map[cellID]bool)
	for _, c := range l.cells {
		id := cellID{c.s, c.key}
		if seen[id] {
			t.Errorf("cell %s of suite %s listed twice", c.key, c.s.cfg.Disk.Name)
		}
		seen[id] = true
	}
	if got := s.tpSweepPolicy(10).Name; got != s.PolicyTP().Name {
		t.Errorf("the sweep's 10 s policy is %s, want the TP cell", got)
	}
	if ds, err := s.deviceSuite(s.cfg.Disk); err != nil || ds != s {
		t.Errorf("deviceSuite(own drive) = %p, %v; want the suite itself", ds, err)
	}

	app, _ := workload.ByName("nedit")
	tp, err := s.Run(app, s.PolicyTP())
	if err != nil {
		t.Fatal(err)
	}
	ten, err := s.runner.RunSource(s.SourceFor(app), s.PolicyTPWith("TP10s", trace.FromSeconds(10)))
	if err != nil {
		t.Fatal(err)
	}
	ten.Policy = tp.Policy
	if !reflect.DeepEqual(ten, tp) {
		t.Errorf("TP10s differs from TP apart from its name:\n%+v\nvs\n%+v", ten, tp)
	}
	sub, err := newSharedSuite(s.seed, s.cfg, s.traces)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range sub.devicePolicies() {
		got, err := sub.Run(app, pol)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run(app, pol)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: a sub-suite on the suite's own drive differs:\n%+v\nvs\n%+v", pol.Name, got, want)
		}
	}
}
