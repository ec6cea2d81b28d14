package workload

import (
	"sync"

	"pcapsim/internal/trace"
)

// eventBufPool recycles per-execution event buffers between Streams, so
// the many sources a streaming suite opens reuse a few buffers. A Stream owns its buffer from its first NextExec until the
// call that reports exhaustion, at which point the buffer returns to the
// pool — consistent with the trace.Source contract that lent event
// slices are invalid after the next NextExec.
var eventBufPool sync.Pool // of *[]trace.Event

// getEventBuf fetches a recycled (empty, capacity-preserving) buffer.
// The caller takes ownership and must pair it with putEventBuf.
//
//pcaplint:owner-transfer
func getEventBuf() []trace.Event {
	if p, ok := eventBufPool.Get().(*[]trace.Event); ok {
		return (*p)[:0]
	}
	return nil
}

// putEventBuf returns a buffer to the pool.
func putEventBuf(buf []trace.Event) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	eventBufPool.Put(&buf)
}

// Stream is a trace.Source that generates an application's executions on
// demand, one at a time, into a single recycled event buffer. Peak memory
// is one execution regardless of how many the workload has — the
// streaming alternative to App.Traces, which pins every execution at
// once. Like all Sources, a Stream is a single-goroutine iterator: share
// the App, not the Stream.
type Stream struct {
	app  *App
	seed uint64
	next int           // next execution index to generate
	cur  []trace.Event // current execution's events (recycled buffer)
}

// Stream returns a Source over the app's executions (Table 1 counts) for
// seed. It yields exactly the events App.Traces(seed) would materialize,
// in the same order.
func (a *App) Stream(seed uint64) *Stream {
	return &Stream{app: a, seed: seed}
}

// NextExec implements trace.Source. It generates the next execution,
// reusing the previous execution's buffer; the first call draws the
// buffer from the shared pool and the exhausting call gives it back.
func (s *Stream) NextExec() (string, int, bool) {
	if s.next >= s.app.Executions {
		if s.cur != nil {
			putEventBuf(s.cur)
			s.cur = nil
		}
		return "", 0, false
	}
	if s.next == 0 && s.cur == nil {
		s.cur = getEventBuf()
	}
	exec := s.next
	s.next++
	s.cur = s.app.generateEvents(s.seed, exec, s.cur)
	return s.app.Name, exec, true
}

// ExecEvents implements trace.Source: the current execution, lent from
// the recycled buffer.
func (s *Stream) ExecEvents() []trace.Event { return s.cur }

// Err implements trace.Source; generation cannot fail.
func (s *Stream) Err() error { return nil }

// Reset implements trace.Source, rewinding to execution 0. Regeneration
// is deterministic, so a replay is identical to the first pass.
func (s *Stream) Reset() error {
	s.next = 0
	s.cur = s.cur[:0]
	return nil
}
