package experiments

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"pcapsim/internal/fleet"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// Run kinds: the three families of runs a RunSpec describes.
const (
	KindEval   = "eval"   // named app workload through named policies
	KindReplay = "replay" // recorded trace file through named policies
	KindFleet  = "fleet"  // fleet comparison across named policies
)

// RunSpec describes one eval, replay or fleet run: the run description
// of pcapsim's -replay and -fleet modes and of pcapd's jobs (the JSON
// body of POST /jobs). Both execute it through Run, so a daemon job's
// output equals the CLI's for the same spec by construction.
type RunSpec struct {
	// Kind selects the run family: "eval", "replay" or "fleet".
	Kind string `json:"kind"`
	// Seed is the workload seed; 0 means DefaultSeed. A replay run reads
	// its workload from the trace, and a suite's seed never changes a
	// replay's rows, so a replay ignores the seed and runs on the default
	// seed's suite. Replay specs still accept it because clients such as
	// perfbench send a seed with every job.
	Seed uint64 `json:"seed,omitempty"`
	// Policies is the policy list (default: DefaultReplayPolicies).
	Policies []string `json:"policies,omitempty"`

	// App names the workload application of an eval run.
	App string `json:"app,omitempty"`
	// Scale repeats an eval run's workload N times (trace.Scale).
	Scale int `json:"scale,omitempty"`
	// Execs, if positive, caps an eval or replay run at the workload's
	// first N executions (trace.LimitExecs).
	Execs int `json:"execs,omitempty"`

	// Trace references the trace file of a replay run, or of a fleet run
	// that replays recorded executions; RunEnv.Resolve maps it to a path.
	Trace string `json:"trace,omitempty"`
	// Workers selects parallel block decode for v2 trace files (0:
	// sequential) and the fleet's worker count (0: one per CPU). Run
	// clamps it to GOMAXPROCS; output is identical at any count.
	Workers int `json:"workers,omitempty"`
	// FromSec/ToSec/Pid/PCFrom/PCTo assemble the predicate of a run that
	// reads a trace file, mirroring pcapsim's -from/-to/-pid/-pcfrom/-pcto.
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec,omitempty"`
	Pid     int     `json:"pid,omitempty"`
	PCFrom  uint64  `json:"pc_from,omitempty"`
	PCTo    uint64  `json:"pc_to,omitempty"`

	// Machines is the fleet size of a fleet run.
	Machines int `json:"machines,omitempty"`
	// DurationSec is a fleet run's per-machine virtual session length in
	// seconds; 0 means fleet.Config's default of 30 virtual minutes.
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Mix is the application mix, "app:weight,app:weight"
	// (fleet.ParseMix syntax), of a fleet run that replays no trace.
	Mix string `json:"mix,omitempty"`

	// TimeoutSec bounds a pcapd job's wall-clock run time (0: the server's
	// default). Run does not read it; its caller's context bounds the run.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// MaxFleetMachines bounds a fleet run's size. The fold keeps one
// 288-byte sim.AppResult per machine per policy, 28.8 MB per policy at
// the bound, and every machine's session is simulated once. Validate
// rejects a repeated policy name and Run an unknown one, so a fleet has
// at most len(ReplayPolicyNames()) policies: 288 MB of results at the
// bound.
const MaxFleetMachines = 100_000

// MaxFleetDurationSec bounds a fleet run's per-machine session: one
// virtual day. A machine's work grows with its session, about 16,000 I/O
// events and 3 ms of one CPU per policy per 30 virtual minutes on the
// default mix, so a machine at the bound simulates about 790,000 events
// per policy.
const MaxFleetDurationSec = 24 * 3600

// UnreadFieldError rejects a spec that sets a field its kind never
// reads, such as scale on a replay run: the run would silently ignore it.
type UnreadFieldError struct {
	Kind  string // the spec's kind
	Field string // the field's JSON name
}

func (e *UnreadFieldError) Error() string {
	return fmt.Sprintf("a %s run does not read %s", e.Kind, e.Field)
}

// Validate rejects a malformed spec before it runs.
func (spec *RunSpec) Validate() error {
	switch spec.Kind {
	case KindEval:
		if spec.App == "" {
			return errors.New("eval run needs an app")
		}
		if _, ok := workload.ByName(spec.App); !ok {
			return fmt.Errorf("unknown application %q", spec.App)
		}
	case KindReplay:
		if spec.Trace == "" {
			return errors.New("replay run needs a trace reference")
		}
	case KindFleet:
		if spec.Machines < 1 || spec.Machines > MaxFleetMachines {
			return fmt.Errorf("fleet run needs 1 to %d machines, got %d", MaxFleetMachines, spec.Machines)
		}
		if spec.DurationSec > MaxFleetDurationSec {
			return fmt.Errorf("fleet session of %g s exceeds the bound of %d s", spec.DurationSec, MaxFleetDurationSec)
		}
		if _, err := fleet.ParseMix(spec.Mix); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown run kind %q (want %s, %s or %s)", spec.Kind, KindEval, KindReplay, KindFleet)
	}
	// Every policy is a cell of the run's one pass, holding a pooled
	// runState and, in a fleet, one result per machine. Names are
	// case-insensitive, and an unknown one fails before anything is
	// simulated, so without repeats a run has at most one cell per
	// known policy.
	seen := make(map[string]bool, len(spec.Policies))
	for _, name := range spec.Policies {
		key := strings.ToLower(name)
		if seen[key] {
			return fmt.Errorf("policy %q is listed more than once", name)
		}
		seen[key] = true
	}
	eval, fleetRun := spec.Kind == KindEval, spec.Kind == KindFleet
	readsTrace := spec.Kind == KindReplay || fleetRun && spec.Trace != ""
	for _, f := range []struct {
		name       string
		set, reads bool
	}{
		{"app", spec.App != "", eval},
		{"scale", spec.Scale != 0, eval},
		{"execs", spec.Execs != 0, !fleetRun},
		{"trace", spec.Trace != "", !eval},
		{"workers", spec.Workers != 0, !eval},
		{"from_sec", spec.FromSec != 0, readsTrace},
		{"to_sec", spec.ToSec != 0, readsTrace},
		{"pid", spec.Pid != 0, readsTrace},
		{"pc_from", spec.PCFrom != 0, readsTrace},
		{"pc_to", spec.PCTo != 0, readsTrace},
		{"machines", spec.Machines != 0, fleetRun},
		{"duration_sec", spec.DurationSec != 0, fleetRun},
		{"mix", spec.Mix != "", fleetRun && spec.Trace == ""}, // a trace is the fleet's workload
	} {
		if f.set && !f.reads {
			return &UnreadFieldError{Kind: spec.Kind, Field: f.name}
		}
	}
	if spec.Scale < 0 || spec.Execs < 0 || spec.Workers < 0 ||
		spec.Machines < 0 || spec.DurationSec < 0 || spec.TimeoutSec < 0 ||
		spec.FromSec < 0 || spec.ToSec < 0 || spec.Pid < 0 {
		return errors.New("run spec fields must be non-negative")
	}
	// The predicate narrows to trace.PID, trace.PC and trace.Time; a value
	// they would truncate or overflow selects the wrong events.
	switch {
	case spec.Pid > math.MaxInt32:
		return fmt.Errorf("pid %d out of range", spec.Pid)
	case spec.PCFrom > math.MaxUint32 || spec.PCTo > math.MaxUint32:
		return fmt.Errorf("pc_from/pc_to (%d, %d) out of the 32-bit program counter range", spec.PCFrom, spec.PCTo)
	case spec.FromSec*1e6 >= math.MaxInt64 || spec.ToSec*1e6 >= math.MaxInt64:
		return fmt.Errorf("from_sec/to_sec (%g, %g) beyond the trace clock's range", spec.FromSec, spec.ToSec)
	}
	return nil
}

// RunEnv is what a caller lends Run. Each nil hook means the pcapsim
// CLI's behaviour, so the zero RunEnv runs a spec exactly as the CLI
// does.
type RunEnv struct {
	// Suite returns the suite an eval or replay run simulates on; nil
	// builds a fresh streaming suite with the paper's configuration.
	Suite func(seed uint64, scale int) (*Suite, error)
	// Resolve maps the spec's trace reference to a file path; nil takes
	// the reference as the path.
	Resolve func(ref string) (string, error)
	// Progress receives the run's work as it is done, on the goroutine
	// that called Run; nil accounts nothing.
	Progress func(Progress)
}

// Progress is one increment of a run's work. An eval or replay run reads
// each execution once for all its policies and reports it once per
// policy, as solo runs would count it; then it reports each policy's
// energy and completion. A fleet run is one pass too, and when it ends
// reports each policy's totals and completion.
type Progress struct {
	Events, Execs, Machines int64
	EnergyJ                 float64
	PolicyDone              bool // one policy's run has finished
}

// Run validates the spec, executes it and returns the rendered report:
// "eval <app>" or "replay <path>", a blank line and the policy table for
// eval and replay runs, and the fleet comparison for fleet runs. ctx
// cancels the run between executions.
func (spec *RunSpec) Run(ctx context.Context, env RunEnv) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	// Output is identical at any worker count, so workers beyond the
	// CPUs would only add decode and fleet goroutines.
	clamped := *spec
	clamped.Workers = min(spec.Workers, runtime.GOMAXPROCS(0))
	spec = &clamped
	if env.Suite == nil {
		env.Suite = func(seed uint64, scale int) (*Suite, error) {
			s, err := NewSuite(seed, sim.DefaultConfig())
			if err == nil {
				s.SetScale(scale)
			}
			return s, err
		}
	}
	if env.Resolve == nil {
		env.Resolve = func(ref string) (string, error) { return ref, nil }
	}
	if env.Progress == nil {
		env.Progress = func(Progress) {}
	}
	seed := cmp.Or(spec.Seed, DefaultSeed)
	policies := spec.Policies
	if len(policies) == 0 {
		policies = DefaultReplayPolicies
	}
	if spec.Kind == KindFleet {
		return spec.runFleet(ctx, env, seed, policies)
	}

	// An eval or replay run is one metered ReplayRows pass. A replay
	// ignores the seed (see Seed), so replays of every seed share one
	// suite.
	if spec.Kind == KindReplay {
		seed = DefaultSeed
	}
	suite, err := env.Suite(seed, max(spec.Scale, 1))
	if err != nil {
		return "", err
	}
	var src trace.Source
	header := "eval " + spec.App
	if spec.Kind == KindEval {
		app, _ := workload.ByName(spec.App)
		src = suite.SourceFor(app)
	} else {
		path, fs, err := spec.openTrace(env)
		if err != nil {
			return "", err
		}
		defer fs.Close() //pcaplint:ignore errcheck-lite file opened read-only; a close failure cannot lose data
		src, header = fs, "replay "+path
	}
	if spec.Execs > 0 {
		src = trace.LimitExecs(src, spec.Execs)
	}
	//pcaplint:ignore ctxflow request-scoped by construction: the meter lives strictly inside this call and cannot outlive ctx
	m := &meter{Source: src, ctx: ctx, progress: env.Progress, policies: int64(len(policies))}
	rows, err := suite.ReplayRows(m, policies)
	if err != nil {
		return "", err
	}
	for _, row := range rows {
		env.Progress(Progress{EnergyJ: row.Result.Energy.Total(), PolicyDone: true})
	}
	return header + "\n\n" + RenderReplayRows(rows), nil
}

// openTrace resolves the spec's trace reference and opens the file with
// its decode workers and predicate.
func (spec *RunSpec) openTrace(env RunEnv) (string, *trace.FileSource, error) {
	path, err := env.Resolve(spec.Trace)
	if err != nil {
		return "", nil, err
	}
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{
		Workers: spec.Workers,
		Pred: trace.Predicate{
			From:   trace.FromSeconds(spec.FromSec),
			To:     trace.FromSeconds(spec.ToSec),
			Pid:    trace.PID(spec.Pid),
			PCFrom: trace.PC(spec.PCFrom),
			PCTo:   trace.PC(spec.PCTo),
		},
	})
	return path, fs, err
}

// runFleet runs the spec's machine population under every policy in
// one fleet pass and renders the comparison.
func (spec *RunSpec) runFleet(ctx context.Context, env RunEnv, seed uint64, policies []string) (string, error) {
	mix, err := fleet.ParseMix(spec.Mix)
	if err != nil {
		return "", err
	}
	cfg := fleet.Config{
		Machines:  spec.Machines,
		Seed:      seed,
		Session:   trace.FromSeconds(spec.DurationSec),
		Mix:       mix,
		Workers:   spec.Workers,
		Interrupt: ctx.Err,
	}
	if spec.Trace != "" {
		// The file's executions become the fleet's workload instead of
		// the synthetic generators.
		_, fs, err := spec.openTrace(env)
		if err != nil {
			return "", err
		}
		cfg.Replay, err = trace.Collect(fs)
		_ = fs.Close() //pcaplint:ignore errcheck-lite read-only handle; the decode error below is authoritative
		if err != nil {
			return "", err
		}
	}
	results, err := FleetResults(cfg, policies)
	if err != nil {
		return "", err
	}
	for _, res := range results {
		env.Progress(Progress{
			Events: res.TotalIOs, Execs: res.Executions, Machines: int64(res.Machines),
			EnergyJ: res.Energy.Total(), PolicyDone: true,
		})
	}
	return RenderFleetComparison(policies, results), nil
}

// meter wraps a run's source with its two cross-cutting concerns,
// cancellation and progress, without touching the event stream: each
// execution's slice passes through unmodified, so a metered run is
// result-identical to a bare one. Both happen at execution boundaries,
// thousands of events apart, so neither adds per-event overhead. One pass
// runs every policy, so each count is multiplied by the policies.
type meter struct {
	trace.Source
	ctx      context.Context
	progress func(Progress)
	policies int64
	err      error // sticky cancellation error
}

func (m *meter) NextExec() (string, int, bool) {
	if m.err == nil {
		m.err = m.ctx.Err()
	}
	if m.err != nil {
		return "", 0, false
	}
	app, exec, ok := m.Source.NextExec()
	if ok {
		m.progress(Progress{Events: int64(len(m.Source.ExecEvents())) * m.policies, Execs: m.policies})
	}
	return app, exec, ok
}

// PinnedTrace implements trace.Pinned, forwarding the inner source's
// trace: metering never changes an execution.
func (m *meter) PinnedTrace() *trace.Trace { return trace.PinnedTrace(m.Source) }

func (m *meter) Err() error {
	if m.err != nil {
		return m.err
	}
	return m.Source.Err()
}
