package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"pcapsim/internal/experiments"
)

// Job kinds, as experiments names them.
const (
	KindEval   = experiments.KindEval
	KindReplay = experiments.KindReplay
	KindFleet  = experiments.KindFleet
)

// JobSpec is the JSON body of POST /jobs: an experiments.RunSpec, the
// run description the pcapsim CLI builds from its flags. CLI and daemon
// both execute it with RunSpec.Run, so every job has a byte-identical
// local counterpart. A job's trace is an upload ID from POST /traces or
// a path inside Config.TraceDir (resolveTrace). The benchmark
// (perfbench) compiles against this name and the Kind constants above;
// the alias keeps them.
type JobSpec = experiments.RunSpec

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
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
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

	// Progress, written by the running job and read by views and the
	// SSE stream.
	work     tally
	polsDone atomic.Int64

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

// progressed records one increment of the job's work in its live view;
// a finished policy also wakes watchers.
func (j *Job) progressed(p experiments.Progress) {
	j.work.add(p)
	if p.PolicyDone {
		j.polsDone.Add(1)
		j.mu.Lock()
		j.bumpLocked()
		j.mu.Unlock()
	}
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
		Events:       j.work.events.Load(),
		Execs:        j.work.execs.Load(),
		Machines:     j.work.machines.Load(),
		EnergyJ:      j.work.energyJ(),
		PoliciesDone: j.polsDone.Load(),
	}
}

// execute runs a job's spec over the server's shared suites and trace
// references, adding its progress to the job's view and to the server's
// counters as it goes. The returned string is the job's Output.
func (s *Server) execute(ctx context.Context, job *Job) (string, error) {
	return job.Spec.Run(ctx, experiments.RunEnv{
		Suite:   s.suites.get,
		Resolve: s.resolveTrace,
		Progress: func(p experiments.Progress) {
			s.counters.work.add(p)
			job.progressed(p)
		},
	})
}
