package fleet

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"pcapsim/internal/disk"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
)

// raceDetectorEnabled is flipped by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// timeoutPolicy is a device-independent fixed-timeout policy — enough
// machinery to drive the engine without importing the experiments suite.
func timeoutPolicy(name string, timeout trace.Time) sim.Policy {
	return sim.Policy{
		Name:       name,
		NewFactory: func() predictor.Factory { return predictor.NewTimeout(timeout) },
	}
}

// tpPolicy is the one-policy fleet of most tests: a 10 s timeout.
func tpPolicy() func(disk.Params) ([]sim.Policy, error) {
	return StaticPolicy(timeoutPolicy("TP", 10*trace.Second))
}

func testConfig(machines int) Config {
	return Config{
		Machines: machines,
		Seed:     7,
		Session:  300 * trace.Second,
		Policy:   tpPolicy(),
		Workers:  1,
	}
}

// TestSpecDeterminism checks machine identity derivation is a pure
// function of (seed, id): two fleets with the same config agree, and the
// mix source replays byte-identically after Reset.
func TestSpecDeterminism(t *testing.T) {
	f1, err := New(testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := New(testConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 16; id++ {
		if s1, s2 := f1.Spec(id), f2.Spec(id); s1 != s2 {
			t.Fatalf("machine %d: spec %+v vs %+v", id, s1, s2)
		}
	}
	if s0, s1 := f1.Spec(0), f1.Spec(1); s0 == s1 {
		t.Fatalf("machines 0 and 1 drew identical specs %+v", s0)
	}

	src := f1.newMixSource(3)
	var first []trace.Event
	app1, _, ok := src.NextExec()
	if !ok {
		t.Fatal("empty session")
	}
	first = append(first, src.ExecEvents()...)
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	app2, _, ok := src.NextExec()
	if !ok {
		t.Fatal("empty session after Reset")
	}
	if app1 != app2 {
		t.Fatalf("first app %q, after Reset %q", app1, app2)
	}
	replay := src.ExecEvents()
	if len(replay) != len(first) {
		t.Fatalf("replay has %d events, first pass %d", len(replay), len(first))
	}
	for i := range replay {
		if replay[i] != first[i] {
			t.Fatalf("event %d: %+v vs %+v", i, replay[i], first[i])
		}
	}
}

// TestShardInsertionOrder runs every machine of a two-policy fleet in
// ascending, reversed and device-grouped machine-ID orders: machines are
// independent, so per-machine results must not depend on the order the
// job list hands them out in.
func TestShardInsertionOrder(t *testing.T) {
	const n = 24
	cfg := testConfig(n)
	cfg.Policy = StaticPolicy(timeoutPolicy("TP", 10*trace.Second), timeoutPolicy("TP2", 2*trace.Second))
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ids []int) [][]sim.AppResult {
		results := [][]sim.AppResult{make([]sim.AppResult, n), make([]sim.AppResult, n)}
		if err := f.runMachines(ids, new(atomic.Int64), results); err != nil {
			t.Fatal(err)
		}
		return results
	}
	asc := make([]int, n)
	rev := make([]int, n)
	for i := 0; i < n; i++ {
		asc[i] = i
		rev[i] = n - 1 - i
	}
	grouped := slices.Clone(asc)
	slices.SortStableFunc(grouped, func(a, b int) int { return f.Spec(a).Device - f.Spec(b).Device })
	want := run(asc)
	if fmt.Sprintf("%+v", want[0][0]) == fmt.Sprintf("%+v", want[1][0]) {
		t.Fatalf("machine 0 has identical results under both policies: %+v", want[0][0])
	}
	for name, ids := range map[string][]int{"reversed": rev, "device-grouped": grouped} {
		got := run(ids)
		for p := range want {
			for id := range want[p] {
				if fmt.Sprintf("%+v", got[p][id]) != fmt.Sprintf("%+v", want[p][id]) {
					t.Fatalf("%s order: policy %d machine %d result differs:\n got %+v\nwant %+v",
						name, p, id, got[p][id], want[p][id])
				}
			}
		}
	}
}

// TestInterruptCancelsPromptly cancels a 2,000-machine fleet mid-run
// through Config.Interrupt. Sessions poll it before every execution, so
// Run must return a context.Canceled error within one execution's
// simulation per worker — bounded here at 250 ms — and leave no goroutine
// behind.
func TestInterruptCancelsPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var polls atomic.Int64
	var canceledAt time.Time // written by the one poll that cancels
	cfg := testConfig(2000)
	cfg.Session = 1800 * trace.Second
	cfg.Workers = 4
	cfg.Interrupt = func() error {
		if polls.Add(1) == 50 {
			canceledAt = time.Now()
			cancel()
		}
		return ctx.Err()
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = (%v, %v), want a context.Canceled error", res, err)
	}
	if lat := returned.Sub(canceledAt); lat > 250*time.Millisecond {
		t.Errorf("Run returned %v after the cancel, want <= 250ms", lat)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the canceled run, %d before", n, before)
	}
}

// TestFleetAllocPerMachine guards the engine's buffer reuse: machines run
// device-grouped, so each worker hands one warm runState from machine to
// machine and a warm run allocates little beyond each machine's
// generated events and predictor state. Reintroducing per-machine state
// churn (interleaved machines, or pools drained between them) more than
// doubles the figure.
func TestFleetAllocPerMachine(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const machines = 64
	cfg := testConfig(machines)
	cfg.Session = 1800 * trace.Second
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := f.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perMachine := (after.TotalAlloc - before.TotalAlloc) / machines
	const bound = 1_700_000 // bytes
	if perMachine > bound {
		t.Errorf("warm fleet run allocated %d bytes per machine, want <= %d", perMachine, bound)
	}
}

// TestSessionBounds checks both session modes: a time-bounded session
// simulates at least Session virtual time, and an execution-bounded one
// runs exactly the requested count.
func TestSessionBounds(t *testing.T) {
	cfg := testConfig(8)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range machineResults(t, f)[0] {
		if res.Executions < 1 {
			t.Errorf("machine %d ran %d executions, want >= 1", id, res.Executions)
		}
		if res.SimTime < cfg.Session {
			t.Errorf("machine %d simulated %v, want >= %v", id, res.SimTime, cfg.Session)
		}
	}

	cfg = testConfig(8)
	cfg.Session = 0
	cfg.Executions = 3
	cfg.Stagger = 60 * trace.Second
	f, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range machineResults(t, f)[0] {
		if res.Executions != 3 {
			t.Errorf("machine %d ran %d executions, want exactly 3", id, res.Executions)
		}
	}
}

// machineResults simulates every machine of f on one worker, in Run's
// job order, and returns machine id's result under policy p at [p][id].
func machineResults(t *testing.T, f *Fleet) [][]sim.AppResult {
	t.Helper()
	results := make([][]sim.AppResult, len(f.names))
	for p := range results {
		results[p] = make([]sim.AppResult, f.cfg.Machines)
	}
	if err := f.runMachines(f.runOrder(), new(atomic.Int64), results); err != nil {
		t.Fatal(err)
	}
	return results
}

// TestRenderSameAtAnyWorkerCount pins the fold's contract under the
// shared job list: which worker claims which machine varies from run to
// run, yet a two-policy fleet renders the same bytes at 1, 2 and 3
// workers.
func TestRenderSameAtAnyWorkerCount(t *testing.T) {
	render := func(workers int) string {
		cfg := testConfig(30)
		cfg.Policy = StaticPolicy(timeoutPolicy("TP", 10*trace.Second), timeoutPolicy("TP2", 2*trace.Second))
		cfg.Workers = workers
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run()
		if err != nil {
			t.Fatal(err)
		}
		var out string
		for _, r := range res {
			out += r.Render()
		}
		return out
	}
	want := render(1)
	for _, workers := range []int{2, 3} {
		if got := render(workers); got != want {
			t.Errorf("%d workers render\n%s\nwant (1 worker)\n%s", workers, got, want)
		}
	}
}

// replayTrace builds a small recorded trace for replay tests.
func replayTrace(app string, exec int, pcBase trace.PC, n int) *trace.Trace {
	tr := &trace.Trace{App: app, Execution: exec}
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, trace.Event{
			Time: trace.Time(i+1) * 2 * trace.Second, Pid: 1, Kind: trace.KindIO,
			Access: trace.AccessRead, PC: pcBase + trace.PC(i%4), FD: 3,
			Block: int64(i), Size: 4096,
		})
	}
	return tr
}

// TestReplayApps checks the recorded-trace workload adapter: traces
// group by app name in first-appearance order, execution i round-robins
// over a group's recordings, and repeat passes warp timestamps exactly
// like the synthetic generator's drift model.
func TestReplayApps(t *testing.T) {
	a0 := replayTrace("editor", 0, 0x1000, 8)
	b0 := replayTrace("browser", 0, 0x2000, 5)
	a1 := replayTrace("editor", 1, 0x1100, 6)
	apps, weights, err := replayApps([]*trace.Trace{a0, b0, a1})
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 2 || apps[0].name != "editor" || apps[1].name != "browser" {
		t.Fatalf("grouping: got %d apps, want editor,browser first-appearance order", len(apps))
	}
	if len(weights) != 2 || weights[0] != weights[1] {
		t.Fatalf("weights = %v, want equal", weights)
	}
	for exec, want := range []*trace.Trace{a0, a1, a0, a1} {
		got := apps[0].appendEvents(nil, 7, exec)
		if len(got) != len(want.Events) {
			t.Fatalf("exec %d: %d events, want %d", exec, len(got), len(want.Events))
		}
		pass := exec / 2
		for i, e := range got {
			src := want.Events[i]
			src.Time = trace.WarpTime(src.Time, pass)
			if e != src {
				t.Fatalf("exec %d event %d: %+v, want %+v", exec, i, e, src)
			}
		}
	}
	// Pass 1 must drift relative to pass 0 — otherwise every machine
	// replays an identical session and the fleet degenerates.
	first := apps[0].appendEvents(nil, 7, 0)
	repeat := apps[0].appendEvents(nil, 7, 2)
	if first[len(first)-1].Time >= repeat[len(repeat)-1].Time {
		t.Fatalf("pass 1 did not warp time forward: %v vs %v",
			first[len(first)-1].Time, repeat[len(repeat)-1].Time)
	}
}

// TestReplayFleet runs a fleet on recorded traces: the run must be
// deterministic across identical configs, and every session must draw
// from the recorded apps only.
func TestReplayFleet(t *testing.T) {
	traces := []*trace.Trace{
		replayTrace("editor", 0, 0x1000, 40),
		replayTrace("browser", 0, 0x2000, 30),
	}
	run := func() []sim.AppResult {
		cfg := testConfig(6)
		cfg.Replay = traces
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return machineResults(t, f)[0]
	}
	first, second := run(), run()
	for id := range first {
		if fmt.Sprintf("%+v", first[id]) != fmt.Sprintf("%+v", second[id]) {
			t.Fatalf("machine %d: replay fleet nondeterministic:\n %+v\nvs %+v",
				id, first[id], second[id])
		}
		if first[id].Executions < 1 {
			t.Errorf("machine %d ran %d executions, want >= 1", id, first[id].Executions)
		}
	}
}

// TestReplaySessionLendsOneExecution: every execution a replaying
// session lends holds exactly its recording's events, never the events
// of the executions drawn before it in the recycled buffer.
func TestReplaySessionLendsOneExecution(t *testing.T) {
	traces := []*trace.Trace{
		replayTrace("editor", 0, 0x1000, 40),
		replayTrace("browser", 0, 0x2000, 30),
	}
	cfg := testConfig(1)
	cfg.Replay = traces
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := f.newMixSource(0)
	n := 0
	for app, exec, ok := s.NextExec(); ok; app, exec, ok = s.NextExec() {
		want := len(traces[0].Events)
		if app == "browser" {
			want = len(traces[1].Events)
		}
		if got := len(s.ExecEvents()); got != want {
			t.Fatalf("execution %d (%s/%d): %d events, want the recording's %d", n, app, exec, got, want)
		}
		n++
	}
	if n < 2 {
		t.Fatalf("the session ran %d executions; the check needs a recycled buffer", n)
	}
}

// TestNewValidation exercises the config error paths.
func TestNewValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"no machines":    func(c *Config) { c.Machines = 0 },
		"nil policy":     func(c *Config) { c.Policy = nil },
		"unknown app":    func(c *Config) { c.Mix = []AppShare{{Name: "solitaire", Weight: 1}} },
		"bad app weight": func(c *Config) { c.Mix = []AppShare{{Name: "mozilla", Weight: -1}} },
		"bad dev weight": func(c *Config) { c.Devices = []DeviceShare{{Device: disk.FujitsuMHF2043AT(), Weight: 0}} },
		"negative execs": func(c *Config) { c.Executions = -1 },
		"empty replay trace": func(c *Config) {
			c.Replay = []*trace.Trace{{App: "editor", Execution: 0}}
		},
		"replay plus mix": func(c *Config) {
			c.Replay = []*trace.Trace{replayTrace("editor", 0, 0x1000, 4)}
			c.Mix = []AppShare{{Name: "mozilla", Weight: 1}}
		},
		"negative window": func(c *Config) { c.Stagger = -trace.Second },
		"no policies":     func(c *Config) { c.Policy = StaticPolicy() },
		"mixed policy names": func(c *Config) {
			n := 0
			c.Policy = func(disk.Params) ([]sim.Policy, error) {
				n++
				return []sim.Policy{timeoutPolicy(fmt.Sprintf("TP%d", n), 10*trace.Second)}, nil
			}
		},
		"reordered policy names": func(c *Config) {
			a, b := timeoutPolicy("A", 10*trace.Second), timeoutPolicy("B", 2*trace.Second)
			n := 0
			c.Policy = func(disk.Params) ([]sim.Policy, error) {
				if n++; n%2 == 0 {
					return []sim.Policy{b, a}, nil
				}
				return []sim.Policy{a, b}, nil
			}
		},
		"fewer policies on one device": func(c *Config) {
			a, b := timeoutPolicy("A", 10*trace.Second), timeoutPolicy("B", 2*trace.Second)
			n := 0
			c.Policy = func(disk.Params) ([]sim.Policy, error) {
				if n++; n == 2 {
					return []sim.Policy{a}, nil
				}
				return []sim.Policy{a, b}, nil
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(4)
			mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted an invalid config")
			}
		})
	}
}

// TestPeakConcurrency checks the interval sweep: with no stagger every
// session overlaps at time zero, and with a stagger far longer than the
// sessions the peak collapses below the fleet size.
func TestPeakConcurrency(t *testing.T) {
	cfg := testConfig(12)
	cfg.Executions = 1
	cfg.Session = 0
	cfg.Stagger = 0 // all sessions arrive at t=0
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].PeakConcurrent != 12 {
		t.Errorf("unstaggered peak = %d, want 12", res[0].PeakConcurrent)
	}

	cfg = testConfig(12)
	cfg.Executions = 1
	cfg.Session = 0
	cfg.Stagger = 40 * 3600 * trace.Second // ~3.3 h between arrivals on average
	f, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res[0].PeakConcurrent >= 12 {
		t.Errorf("widely staggered peak = %d, want < 12", res[0].PeakConcurrent)
	}
	if res[0].PeakConcurrent < 1 {
		t.Errorf("peak = %d, want >= 1", res[0].PeakConcurrent)
	}
}
