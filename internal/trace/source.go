package trace

import "fmt"

// Pull-based event streaming.
//
// A Source is the streaming counterpart of a []*Trace workload: it yields
// the events of one or more executions in time order, one event per pull,
// so consumers (the simulator, the inspection tools, the codec) never need
// the whole workload — or even a whole execution — resident in memory.
// Sources are single-goroutine iterators: share the factory (an App, a
// TraceCache), never a Source value.

// Source is a pull-based iterator over the events of a workload: a
// sequence of executions, each an event stream in non-decreasing time
// order.
//
// The protocol is two-level. NextExec advances to the next execution and
// returns its identity; Next then yields that execution's events until it
// returns ok=false. Calling NextExec before the current execution is
// drained discards its remaining events. After any ok=false, Err reports
// whether the stream ended or failed.
type Source interface {
	// NextExec advances to the next execution, returning the application
	// name and execution index. ok=false means the workload is exhausted
	// or the source failed (see Err).
	NextExec() (app string, exec int, ok bool)
	// Next returns the next event of the current execution. ok=false
	// means the execution is drained or the source failed (see Err).
	Next() (Event, bool)
	// Err returns the first error the source encountered, or nil.
	Err() error
	// Reset rewinds the source to the beginning of the workload. Sources
	// over non-seekable inputs return an error.
	Reset() error
}

// ExecSlicer is implemented by sources whose current execution is already
// materialized (SliceSource, the workload generator's per-execution
// buffer). ExecEvents returns the remaining events of the current
// execution as a single shared slice and exhausts the execution; callers
// must treat the slice as read-only and must not retain it past the next
// NextExec. The simulator uses it to skip re-buffering events that are
// already in memory.
type ExecSlicer interface {
	ExecEvents() []Event
}

// ExecAppender is the batch counterpart of ExecSlicer for sources that
// decode block by block rather than holding a whole execution's slice
// (BlockSource, ParallelSource). AppendExec appends the
// remaining events of the current execution to buf and exhausts the
// execution; the returned slice is caller-owned. Drain prefers it over
// the event-at-a-time Next loop.
type ExecAppender interface {
	AppendExec(buf []Event) []Event
}

// SliceSource adapts materialized traces to the Source interface — the
// back-compatibility bridge between []*Trace workloads and streaming
// consumers. The traces are shared read-only, never copied.
type SliceSource struct {
	traces []*Trace
	cur    int // index of the current execution; -1 before the first NextExec
	pos    int // next event within the current execution
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
	s.pos = 0
	t := s.traces[s.cur]
	return t.App, t.Execution, true
}

// Next implements Source.
func (s *SliceSource) Next() (Event, bool) {
	if s.cur < 0 || s.cur >= len(s.traces) || s.pos >= len(s.traces[s.cur].Events) {
		return Event{}, false
	}
	e := s.traces[s.cur].Events[s.pos]
	s.pos++
	return e, true
}

// ExecEvents implements ExecSlicer.
func (s *SliceSource) ExecEvents() []Event {
	if s.cur < 0 || s.cur >= len(s.traces) {
		return nil
	}
	events := s.traces[s.cur].Events[s.pos:]
	s.pos = len(s.traces[s.cur].Events)
	return events
}

// Err implements Source.
func (s *SliceSource) Err() error { return nil }

// Reset implements Source.
func (s *SliceSource) Reset() error {
	s.cur = -1
	s.pos = 0
	return nil
}

// Drain consumes the remaining events of src's current execution into buf
// (reusing its capacity) and returns the filled slice. Sources that
// already hold the execution in memory (ExecSlicer) are returned as-is,
// without copying.
func Drain(src Source, buf []Event) []Event {
	if es, ok := src.(ExecSlicer); ok {
		return es.ExecEvents()
	}
	if ea, ok := src.(ExecAppender); ok {
		return ea.AppendExec(buf[:0])
	}
	buf = buf[:0]
	for {
		e, ok := src.Next()
		if !ok {
			return buf
		}
		buf = append(buf, e)
	}
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
		t := &Trace{App: app, Execution: exec}
		for {
			e, ok := src.Next()
			if !ok {
				break
			}
			t.Events = append(t.Events, e)
		}
		out = append(out, t)
	}
	return out, src.Err()
}

// mergeSource time-merges several sources execution by execution.
type mergeSource struct {
	srcs []Source
	head []Event // current head event per input
	ok   []bool  // head validity per input
	err  error
}

// MergeSources merges several sources into one: execution k of the output
// is the time-ordered merge of execution k of every input, with ties
// broken by input order (matching Merge over slices). The inputs must
// yield the same number of executions; the merged execution takes its
// app name and index from the first input.
func MergeSources(srcs ...Source) Source {
	return &mergeSource{
		srcs: srcs,
		head: make([]Event, len(srcs)),
		ok:   make([]bool, len(srcs)),
	}
}

func (m *mergeSource) NextExec() (string, int, bool) {
	if m.err != nil || len(m.srcs) == 0 {
		return "", 0, false
	}
	app, exec := "", 0
	advanced := 0
	for i, s := range m.srcs {
		a, x, ok := s.NextExec()
		if ok {
			advanced++
			if i == 0 {
				app, exec = a, x
			}
			m.head[i], m.ok[i] = s.Next()
		} else {
			m.ok[i] = false
			if err := s.Err(); err != nil && m.err == nil {
				m.err = err
			}
		}
	}
	if advanced == 0 {
		return "", 0, false
	}
	if advanced < len(m.srcs) && m.err == nil {
		m.err = fmt.Errorf("trace: merge inputs yield different execution counts")
		return "", 0, false
	}
	return app, exec, m.err == nil
}

func (m *mergeSource) Next() (Event, bool) {
	if m.err != nil {
		return Event{}, false
	}
	best := -1
	for i := range m.srcs {
		if !m.ok[i] {
			continue
		}
		if best == -1 || m.head[i].Time < m.head[best].Time {
			best = i
		}
	}
	if best == -1 {
		return Event{}, false
	}
	e := m.head[best]
	m.head[best], m.ok[best] = m.srcs[best].Next()
	return e, true
}

func (m *mergeSource) Err() error {
	if m.err != nil {
		return m.err
	}
	for _, s := range m.srcs {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (m *mergeSource) Reset() error {
	for _, s := range m.srcs {
		if err := s.Reset(); err != nil {
			return err
		}
	}
	m.err = nil
	for i := range m.ok {
		m.ok[i] = false
	}
	return nil
}

// limitSource caps each execution at n events.
type limitSource struct {
	src  Source
	n    int
	left int
}

// Limit returns a source yielding at most n events per execution of src
// (the head of each execution — traceinspect's -head over a stream).
func Limit(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	return &limitSource{src: src, n: n}
}

func (l *limitSource) NextExec() (string, int, bool) {
	l.left = l.n
	return l.src.NextExec()
}

func (l *limitSource) Next() (Event, bool) {
	if l.left <= 0 {
		return Event{}, false
	}
	l.left--
	return l.src.Next()
}

func (l *limitSource) Err() error { return l.src.Err() }

func (l *limitSource) Reset() error {
	l.left = 0
	return l.src.Reset()
}

// limitExecsSource caps the workload at its first n executions.
type limitExecsSource struct {
	src  Source
	n    int
	seen int
}

// LimitExecs returns a source yielding only the first n executions of
// src — the workload-level counterpart of Limit, used to carve bounded
// jobs out of large workloads (pcapd's per-job execution cap). Events
// within the surviving executions pass through unchanged, including the
// inner source's batch paths.
func LimitExecs(src Source, n int) Source {
	if n < 0 {
		n = 0
	}
	return &limitExecsSource{src: src, n: n}
}

func (l *limitExecsSource) NextExec() (string, int, bool) {
	if l.seen >= l.n {
		return "", 0, false
	}
	app, exec, ok := l.src.NextExec()
	if ok {
		l.seen++
	}
	return app, exec, ok
}

func (l *limitExecsSource) Next() (Event, bool) { return l.src.Next() }

// AppendExec implements ExecAppender so the wrapper does not demote the
// inner source's batch decode path to event-at-a-time pulls.
func (l *limitExecsSource) AppendExec(buf []Event) []Event {
	if es, ok := l.src.(ExecSlicer); ok {
		return append(buf, es.ExecEvents()...)
	}
	if ea, ok := l.src.(ExecAppender); ok {
		return ea.AppendExec(buf)
	}
	for {
		e, ok := l.src.Next()
		if !ok {
			return buf
		}
		buf = append(buf, e)
	}
}

func (l *limitExecsSource) Err() error { return l.src.Err() }

func (l *limitExecsSource) Reset() error {
	l.seen = 0
	return l.src.Reset()
}

// scaleSource repeats a workload n times.
type scaleSource struct {
	src  Source
	n    int   // total passes
	pass int   // current pass, 0-based
	exec int   // next output execution index
	err  error // sticky local error (failed Reset between passes)
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

func (s *scaleSource) Next() (Event, bool) {
	e, ok := s.src.Next()
	if !ok {
		return Event{}, false
	}
	e.Time = warpTime(e.Time, s.pass)
	return e, true
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
