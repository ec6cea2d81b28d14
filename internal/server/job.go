package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"

	"pcapsim/internal/experiments"
	"pcapsim/internal/fleet"
	"pcapsim/internal/server/stats"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// JobKind names the three job families the daemon runs.
const (
	KindEval   = "eval"   // named app workload through named policies
	KindReplay = "replay" // recorded trace file through named policies
	KindFleet  = "fleet"  // fleet comparison across named policies
)

// JobSpec is the JSON body of POST /jobs. Exactly the knobs the pcapsim
// CLI exposes, so every server job has a byte-identical local
// counterpart.
type JobSpec struct {
	// Kind selects the job family: "eval", "replay" or "fleet".
	Kind string `json:"kind"`
	// Seed is the workload seed; 0 means experiments.DefaultSeed.
	Seed uint64 `json:"seed,omitempty"`
	// Policies is the policy list (default: base,tp,pcap,ideal).
	Policies []string `json:"policies,omitempty"`

	// App names the workload application for eval jobs.
	App string `json:"app,omitempty"`
	// Scale repeats the eval workload N times with warped timestamps.
	Scale int `json:"scale,omitempty"`
	// Execs, if positive, caps eval and replay jobs at the workload's
	// first N executions (trace.LimitExecs).
	Execs int `json:"execs,omitempty"`

	// Trace references the trace file for replay jobs (and fleet replay):
	// an upload ID from POST /traces, or a path inside the server's
	// trace directory.
	Trace string `json:"trace,omitempty"`
	// Workers selects parallel block decode for v2 trace files, and the
	// fleet engine's worker count. 0 is the sequential reference path.
	Workers int `json:"workers,omitempty"`
	// FromSec/ToSec/Pid/PCFrom/PCTo assemble the replay predicate,
	// mirroring pcapsim's -from/-to/-pid/-pcfrom/-pcto.
	FromSec float64 `json:"from_sec,omitempty"`
	ToSec   float64 `json:"to_sec,omitempty"`
	Pid     int     `json:"pid,omitempty"`
	PCFrom  uint64  `json:"pc_from,omitempty"`
	PCTo    uint64  `json:"pc_to,omitempty"`

	// Machines is the fleet size for fleet jobs.
	Machines int `json:"machines,omitempty"`
	// DurationSec is the fleet's per-machine virtual session length in
	// seconds (default 30 virtual minutes).
	DurationSec float64 `json:"duration_sec,omitempty"`
	// Mix is the fleet application mix, "app:weight,app:weight"
	// (fleet.ParseMix syntax, same as pcapsim -mix).
	Mix string `json:"mix,omitempty"`

	// TimeoutSec bounds the job's wall-clock run time; 0 means the
	// server's default timeout.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// decodeJobSpec decodes and validates one POST /jobs body. Unknown
// fields, anything but white space after the JSON document, and specs
// validate rejects all error.
func decodeJobSpec(r io.Reader) (*JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding job spec: %w", err)
	}
	// Only the end of the body may follow: a second document, or stray
	// bytes, mean the client sent something other than one spec.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		if errors.As(err, new(*http.MaxBytesError)) {
			return nil, fmt.Errorf("decoding job spec: %w", err)
		}
		return nil, errors.New("decoding job spec: trailing data after JSON document")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// validate rejects malformed specs before they reach the queue.
func (spec *JobSpec) validate() error {
	switch spec.Kind {
	case KindEval:
		if spec.App == "" {
			return errors.New("eval job needs an app")
		}
		if _, ok := workload.ByName(spec.App); !ok {
			return fmt.Errorf("unknown application %q", spec.App)
		}
	case KindReplay:
		if spec.Trace == "" {
			return errors.New("replay job needs a trace reference")
		}
	case KindFleet:
		if spec.Machines < 1 {
			return fmt.Errorf("fleet job needs a positive machine count, got %d", spec.Machines)
		}
		if _, err := fleet.ParseMix(spec.Mix); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown job kind %q (want %s, %s or %s)", spec.Kind, KindEval, KindReplay, KindFleet)
	}
	if spec.Scale < 0 || spec.Execs < 0 || spec.Workers < 0 ||
		spec.Machines < 0 || spec.DurationSec < 0 || spec.TimeoutSec < 0 ||
		spec.FromSec < 0 || spec.ToSec < 0 || spec.Pid < 0 {
		return errors.New("job spec fields must be non-negative")
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

// seed returns the effective workload seed.
func (spec *JobSpec) seed() uint64 {
	if spec.Seed == 0 {
		return experiments.DefaultSeed
	}
	return spec.Seed
}

// predicate assembles the spec's event filter.
func (spec *JobSpec) predicate() trace.Predicate {
	return trace.Predicate{
		From:   trace.FromSeconds(spec.FromSec),
		To:     trace.FromSeconds(spec.ToSec),
		Pid:    trace.PID(spec.Pid),
		PCFrom: trace.PC(spec.PCFrom),
		PCTo:   trace.PC(spec.PCTo),
	}
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one submitted unit of work and its observable lifecycle.
type Job struct {
	ID   string
	Spec JobSpec

	// Progress counters, written by the running job and read by views
	// and the SSE stream.
	events     atomic.Int64
	execs      atomic.Int64
	machines   atomic.Int64
	energyBits atomic.Uint64
	polsDone   atomic.Int64

	mu      sync.Mutex
	state   string
	output  string
	errMsg  string
	cancel  context.CancelFunc // set while running
	wantCxl string             // cancel reason received before the run started
	version int64
	changed chan struct{} // closed and replaced on every observable change
	done    chan struct{} // closed on reaching a terminal state
}

func newJob(id string, spec *JobSpec) *Job {
	return &Job{
		ID:      id,
		Spec:    *spec,
		state:   StateQueued,
		changed: make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// start transitions queued → running; false means the job was canceled
// while queued and must not run.
func (j *Job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.bumpLocked()
	return true
}

// bindCancel installs the running job's context cancel so Cancel can
// reach it. A cancel requested while the job was still queued is applied
// immediately.
func (j *Job) bindCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	pending := j.wantCxl
	j.mu.Unlock()
	if pending != "" {
		cancel()
	}
}

// finish records the terminal state.
func (j *Job) finish(state, output, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone || j.state == StateFailed || j.state == StateCanceled {
		return
	}
	j.state = state
	j.output = output
	j.errMsg = errMsg
	j.cancel = nil
	j.bumpLocked()
	close(j.done)
}

// Cancel requests cancellation: a queued job is terminated in place, a
// running job has its context canceled (the run then winds down through
// the meter / fleet Interrupt checks). Terminal jobs are unaffected.
func (j *Job) Cancel(reason string) {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.errMsg = "canceled: " + reason
		j.bumpLocked()
		close(j.done)
		j.mu.Unlock()
	case StateRunning:
		cancel := j.cancel
		if cancel == nil {
			j.wantCxl = reason
		}
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
	default:
		j.mu.Unlock()
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// bumpLocked wakes every watcher; callers hold j.mu.
func (j *Job) bumpLocked() {
	j.version++
	close(j.changed)
	j.changed = make(chan struct{})
}

// progressed records batch progress and wakes watchers.
func (j *Job) progressed(events, execs, machines int64, energy float64) {
	if events != 0 {
		j.events.Add(events)
	}
	if execs != 0 {
		j.execs.Add(execs)
	}
	if machines != 0 {
		j.machines.Add(machines)
	}
	if energy != 0 {
		for {
			old := j.energyBits.Load()
			val := math.Float64frombits(old) + energy
			if j.energyBits.CompareAndSwap(old, math.Float64bits(val)) {
				break
			}
		}
	}
}

// policyDone records one finished policy run and wakes watchers.
func (j *Job) policyDone() {
	j.polsDone.Add(1)
	j.mu.Lock()
	j.bumpLocked()
	j.mu.Unlock()
}

// watch returns the current version and a channel closed at the next
// change.
func (j *Job) watch() (int64, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.version, j.changed
}

// View is a job's JSON representation.
type View struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Output is the finished job's rendered report — byte-identical to
	// the equivalent pcapsim run.
	Output string `json:"output,omitempty"`
	Error  string `json:"error,omitempty"`
	// Live progress: totals accounted so far by the running job.
	Events       int64   `json:"events"`
	Execs        int64   `json:"execs"`
	Machines     int64   `json:"machines,omitempty"`
	EnergyJ      float64 `json:"energy_j"`
	PoliciesDone int64   `json:"policies_done"`
}

// view snapshots the job.
func (j *Job) view() View {
	j.mu.Lock()
	state, output, errMsg := j.state, j.output, j.errMsg
	j.mu.Unlock()
	return View{
		ID:           j.ID,
		Kind:         j.Spec.Kind,
		State:        state,
		Output:       output,
		Error:        errMsg,
		Events:       j.events.Load(),
		Execs:        j.execs.Load(),
		Machines:     j.machines.Load(),
		EnergyJ:      math.Float64frombits(j.energyBits.Load()),
		PoliciesDone: j.polsDone.Load(),
	}
}

// execute dispatches a job to its kind's runner. The returned string is
// the job's Output.
func (s *Server) execute(ctx context.Context, job *Job, local *stats.Local) (string, error) {
	switch job.Spec.Kind {
	case KindEval:
		return s.runEval(ctx, job, local)
	case KindReplay:
		return s.runReplay(ctx, job, local)
	case KindFleet:
		return s.runFleet(ctx, job, local)
	default:
		return "", fmt.Errorf("unknown job kind %q", job.Spec.Kind) // unreachable past validate
	}
}

// runEval runs a named app's workload through the named policies — the
// server-side twin of the CLI's per-app experiment path. Output equals
// "eval <app>\n\n" + the same table ReplaySource renders locally.
func (s *Server) runEval(ctx context.Context, job *Job, local *stats.Local) (string, error) {
	spec := &job.Spec
	suite, err := s.suites.get(spec.seed(), spec.Scale)
	if err != nil {
		return "", err
	}
	app, ok := workload.ByName(spec.App)
	if !ok {
		return "", fmt.Errorf("unknown application %q", spec.App)
	}
	src := suite.SourceFor(app)
	if spec.Execs > 0 {
		src = trace.LimitExecs(src, spec.Execs)
	}
	rows, err := replayRows(ctx, suite, src, job, local)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("eval %s\n\n%s", spec.App, experiments.RenderReplayRows(rows)), nil
}

// runReplay replays a referenced or uploaded trace file under the named
// policies. Output is byte-identical to pcapsim -replay over the
// resolved path.
func (s *Server) runReplay(ctx context.Context, job *Job, local *stats.Local) (string, error) {
	spec := &job.Spec
	suite, err := s.suites.get(spec.seed(), 1)
	if err != nil {
		return "", err
	}
	path, err := s.resolveTrace(spec.Trace)
	if err != nil {
		return "", err
	}
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: spec.Workers, Pred: spec.predicate()})
	if err != nil {
		return "", err
	}
	defer fs.Close() //pcaplint:ignore errcheck-lite file opened read-only; a close failure cannot lose data
	var src trace.Source = fs
	if spec.Execs > 0 {
		src = trace.LimitExecs(src, spec.Execs)
	}
	rows, err := replayRows(ctx, suite, src, job, local)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("replay %s\n\n%s", path, experiments.RenderReplayRows(rows)), nil
}

// replayRows runs the job's policies over src in one metered ReplayRows
// pass, then accounts each policy's energy and completion.
func replayRows(ctx context.Context, suite *experiments.Suite, src trace.Source, job *Job, local *stats.Local) ([]experiments.ReplayRow, error) {
	policies := cmp.Or(len(job.Spec.Policies), len(experiments.DefaultReplayPolicies))
	rows, err := suite.ReplayRows(newMeter(ctx, src, local, job, policies), job.Spec.Policies)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		local.AddEnergy(row.Result.Energy.Total())
		job.progressed(0, 0, 0, row.Result.Energy.Total())
		job.policyDone()
	}
	return rows, nil
}

// runFleet runs one fleet per named policy. Output is byte-identical to
// pcapsim -fleet with the same parameters.
func (s *Server) runFleet(ctx context.Context, job *Job, local *stats.Local) (string, error) {
	spec := &job.Spec
	mix, err := fleet.ParseMix(spec.Mix)
	if err != nil {
		return "", err
	}
	session := 1800.0 // pcapsim's -duration default: 30 virtual minutes
	if spec.DurationSec > 0 {
		session = spec.DurationSec
	}
	cfg := fleet.Config{
		Machines:  spec.Machines,
		Seed:      spec.seed(),
		Session:   trace.FromSeconds(session),
		Mix:       mix,
		Workers:   spec.Workers,
		Interrupt: ctx.Err,
		// Observe runs on this goroutine during each run's fold, so the
		// single-owner stats shard is safe to touch here.
		Observe: func(id int, res *sim.AppResult) {
			local.AddMachines(1)
			local.AddEvents(int64(res.TotalIOs))
			local.AddExecs(int64(res.Executions))
			local.AddEnergy(res.Energy.Total())
			job.progressed(int64(res.TotalIOs), int64(res.Executions), 1, res.Energy.Total())
		},
	}
	if spec.Trace != "" {
		path, err := s.resolveTrace(spec.Trace)
		if err != nil {
			return "", err
		}
		fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: spec.Workers, Pred: spec.predicate()})
		if err != nil {
			return "", err
		}
		traces, err := trace.Collect(fs)
		_ = fs.Close() //pcaplint:ignore errcheck-lite read-only handle; the decode error below is authoritative
		if err != nil {
			return "", err
		}
		cfg.Replay = traces
	}
	policies := spec.Policies
	if len(policies) == 0 {
		policies = experiments.DefaultReplayPolicies
	}
	results, err := experiments.FleetResultsObserved(cfg, policies, func(string, *fleet.Result) {
		job.policyDone()
	})
	if err != nil {
		return "", err
	}
	return experiments.RenderFleetComparison(policies, results), nil
}

// meter wraps a trace source with the server's two cross-cutting
// concerns — cancellation and accounting — without touching the event
// stream itself: each execution's slice passes through unmodified, so a
// metered replay is result-identical to a bare one. Cancellation is
// checked at execution boundaries (thousands of events apart), and counts
// flow into the coalescing stats shard and the job's progress counters
// once per execution, so neither concern adds per-event overhead. One
// pass runs every policy, so each count is multiplied by the policies.
type meter struct {
	trace.Source
	ctx      context.Context
	local    *stats.Local
	job      *Job
	policies int64
	err      error // sticky cancellation error
}

func newMeter(ctx context.Context, src trace.Source, local *stats.Local, job *Job, policies int) *meter {
	//pcaplint:ignore ctxflow request-scoped by construction: the meter lives strictly inside the job's exec call and cannot outlive ctx
	return &meter{Source: src, ctx: ctx, local: local, job: job, policies: int64(policies)}
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
		m.local.AddExecs(m.policies)
		events := int64(len(m.Source.ExecEvents())) * m.policies
		if events > 0 {
			m.local.AddEvents(events)
		}
		m.job.progressed(events, m.policies, 0, 0)
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
