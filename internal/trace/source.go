package trace

import "fmt"

// Pull-based execution streaming.
//
// A Source is the streaming counterpart of a []*Trace workload: it yields
// a workload one execution at a time, so consumers (the simulator, the
// inspection tools, the codec) never need the whole workload resident in
// memory — only the current execution. Sources are single-goroutine
// iterators: share the factory (an App, a TraceCache), never a Source
// value.

// Source is a pull-based iterator over the executions of a workload, each
// an event sequence in non-decreasing time order.
//
// NextExec loads the next execution whole; ExecEvents then lends it out
// as one slice. The slice is owned by the source: callers must treat it
// as read-only and must not retain it past the next NextExec or Reset. A
// source that fails while loading an execution reports ok=false and
// delivers no part of it. After any ok=false, Err reports whether the
// stream ended or failed.
type Source interface {
	// NextExec loads the next execution, returning the application name
	// and execution index. ok=false means the workload is exhausted or
	// the source failed (see Err).
	NextExec() (app string, exec int, ok bool)
	// ExecEvents returns the events of the execution the last successful
	// NextExec loaded.
	ExecEvents() []Event
	// Err returns the first error the source encountered, or nil.
	Err() error
	// Reset rewinds the source to the beginning of the workload. Sources
	// over non-seekable inputs return an error.
	Reset() error
}

// Pinned is implemented by sources whose executions are immutable
// traces that outlive the pass, such as a trace cache's pinned entries.
// PinnedTrace returns the current execution as that trace, whose Events
// are the very slice ExecEvents lends, or nil when the current execution
// has no such trace. A consumer may keep state derived from a pinned
// trace, keyed by its pointer, for as long as it likes. Wrappers that
// pass executions through unchanged forward it; sources that decode,
// filter, warp or regenerate do not implement it.
type Pinned interface {
	PinnedTrace() *Trace
}

// PinnedTrace returns src's current execution as an immutable pinned
// trace, or nil if src lends none (see Pinned).
func PinnedTrace(src Source) *Trace {
	if p, ok := src.(Pinned); ok {
		return p.PinnedTrace()
	}
	return nil
}

// SliceSource adapts materialized traces to the Source interface — the
// back-compatibility bridge between []*Trace workloads and streaming
// consumers. The traces are shared read-only, never copied.
type SliceSource struct {
	traces []*Trace
	cur    int // index of the current execution; -1 before the first NextExec
}

// NewSliceSource returns a Source over the given traces, in order.
func NewSliceSource(traces ...*Trace) *SliceSource {
	return &SliceSource{traces: traces, cur: -1}
}

// NextExec implements Source.
func (s *SliceSource) NextExec() (string, int, bool) {
	if s.cur+1 >= len(s.traces) {
		s.cur = len(s.traces)
		return "", 0, false
	}
	s.cur++
	t := s.traces[s.cur]
	return t.App, t.Execution, true
}

// ExecEvents implements Source: the current trace's own event slice.
func (s *SliceSource) ExecEvents() []Event {
	if s.cur < 0 || s.cur >= len(s.traces) {
		return nil
	}
	return s.traces[s.cur].Events
}

// Err implements Source.
func (s *SliceSource) Err() error { return nil }

// Reset implements Source.
func (s *SliceSource) Reset() error {
	s.cur = -1
	return nil
}

// Drain copies the events of src's current execution into buf (reusing
// its capacity) and returns the filled slice, which the caller owns.
func Drain(src Source, buf []Event) []Event {
	return append(buf[:0], src.ExecEvents()...)
}

// Collect materializes every remaining execution of src as traces —
// the inverse of NewSliceSource, for tests and tools that need slices.
func Collect(src Source) ([]*Trace, error) {
	var out []*Trace
	for {
		app, exec, ok := src.NextExec()
		if !ok {
			break
		}
		out = append(out, &Trace{App: app, Execution: exec, Events: Drain(src, nil)})
	}
	return out, src.Err()
}

// limitExecsSource caps the workload at its first n executions.
type limitExecsSource struct {
	Source
	n    int
	seen int
}

// LimitExecs returns a source yielding only the first n executions of
// src, used to carve bounded jobs out of large workloads (pcapd's
// per-job execution cap). The surviving executions' slices, and their
// pinned traces (see Pinned), pass through unchanged.
func LimitExecs(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	return &limitExecsSource{Source: src, n: n}
}

func (l *limitExecsSource) NextExec() (string, int, bool) {
	if l.seen >= l.n {
		return "", 0, false
	}
	app, exec, ok := l.Source.NextExec()
	if ok {
		l.seen++
	}
	return app, exec, ok
}

// PinnedTrace implements Pinned, forwarding the inner source's trace.
func (l *limitExecsSource) PinnedTrace() *Trace { return PinnedTrace(l.Source) }

func (l *limitExecsSource) Reset() error {
	l.seen = 0
	return l.Source.Reset()
}

// scaleSource repeats a workload n times.
type scaleSource struct {
	src  Source
	n    int     // total passes
	pass int     // current pass, 0-based
	exec int     // next output execution index
	err  error   // sticky local error (failed Reset between passes)
	buf  []Event // the warped current execution of passes > 0
}

// Scale returns a source that yields the executions of src n times over —
// an N×-repeated workload for stress and scaling runs. Execution indices
// are renumbered sequentially from 0 across the passes. Repetition r
// warps every timestamp by the deterministic stretch t → t + (t/1024)·r,
// modelling run-to-run timing drift: repeated sessions keep their I/O
// structure (PC paths, burst shapes) but never replay microsecond-
// identical think times. Pass 0 is the identity, and Scale(src, 1)
// returns src itself, so a 1× scaled workload is byte-for-byte the
// original. src must support Reset for n > 1.
func Scale(src Source, n int) Source {
	if n <= 1 {
		return src
	}
	return &scaleSource{src: src, n: n}
}

// warpTime applies pass r's timestamp stretch. Integer arithmetic keeps
// the warp deterministic and (weakly) monotone, preserving non-decreasing
// event order within an execution.
func warpTime(t Time, r int) Time {
	if t < 0 {
		return t
	}
	return t + (t/1024)*Time(r)
}

// WarpTime is pass r's deterministic timestamp stretch, t → t +
// (t/1024)·r — the drift model Scale applies between repetitions,
// exported so other repeat-replay layers (fleet trace replay) warp
// identically.
func WarpTime(t Time, r int) Time { return warpTime(t, r) }

func (s *scaleSource) NextExec() (string, int, bool) {
	if s.err != nil {
		return "", 0, false
	}
	for {
		app, _, ok := s.src.NextExec()
		if ok {
			if s.pass > 0 {
				s.buf = s.buf[:0]
				for _, e := range s.src.ExecEvents() {
					e.Time = warpTime(e.Time, s.pass)
					s.buf = append(s.buf, e)
				}
			}
			exec := s.exec
			s.exec++
			return app, exec, true
		}
		if err := s.src.Err(); err != nil {
			return "", 0, false
		}
		if s.pass+1 >= s.n {
			return "", 0, false
		}
		if err := s.src.Reset(); err != nil {
			s.err = fmt.Errorf("trace: scale pass %d: %w", s.pass+1, err)
			return "", 0, false
		}
		s.pass++
	}
}

// ExecEvents implements Source: pass 0 lends the inner source's slice,
// later passes the warped copy.
func (s *scaleSource) ExecEvents() []Event {
	if s.pass == 0 {
		return s.src.ExecEvents()
	}
	return s.buf
}

func (s *scaleSource) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

func (s *scaleSource) Reset() error {
	if err := s.src.Reset(); err != nil {
		return err
	}
	s.pass = 0
	s.exec = 0
	s.err = nil
	return nil
}
