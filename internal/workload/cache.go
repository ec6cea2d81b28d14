package workload

import (
	"sync"
	"sync/atomic"

	"pcapsim/internal/trace"
)

// TraceCache memoizes generated execution traces per (application, seed,
// execution). Generation is deterministic — App.Trace is a pure function
// of (seed, execution index) — so a cached trace can be shared read-only
// by any number of concurrent policy runs: traces are replayed, never
// mutated.
//
// The cache is safe for concurrent use. Each execution is generated
// exactly once, when the first Source reaches it; concurrent callers
// block on that generation and all receive the identical *trace.Trace.
// A source capped at its first N executions (trace.LimitExecs) therefore
// generates and pins only those N. Distinct seeds never share an entry.
//
// Pinning pays only for an owner that replays the same workloads again
// and again; a one-shot run streams App.Stream instead, in O(one
// execution) memory.
type TraceCache struct {
	mu   sync.Mutex
	m    map[traceKey]*traceEntry
	gens atomic.Int64
}

type traceKey struct {
	app  string
	seed uint64
}

// traceEntry holds one (app, seed) workload: a write-once slot per
// execution.
type traceEntry struct {
	app   *App
	seed  uint64
	gens  *atomic.Int64
	slots []execSlot
}

type execSlot struct {
	once sync.Once
	tr   *trace.Trace
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{m: make(map[traceKey]*traceEntry)}
}

// entry returns the (app, seed) entry, creating it empty on first use.
func (c *TraceCache) entry(app *App, seed uint64) *traceEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := traceKey{app: app.Name, seed: seed}
	e, ok := c.m[key]
	if !ok {
		e = &traceEntry{app: app, seed: seed, gens: &c.gens, slots: make([]execSlot, app.Executions)}
		c.m[key] = e
	}
	return e
}

// exec returns execution i, generating it on first use.
func (e *traceEntry) exec(i int) *trace.Trace {
	s := &e.slots[i]
	s.once.Do(func() {
		e.gens.Add(1)
		s.tr = e.app.Trace(e.seed, i)
	})
	return s.tr
}

// Source returns a trace.Source over the app's executions for seed. It
// reads the cache's per-execution slots, generating each execution only
// when NextExec reaches it, so concurrent callers share one generation
// per execution. Each call returns an independent iterator — sources are
// single-goroutine values.
func (c *TraceCache) Source(app *App, seed uint64) trace.Source {
	return &cacheSource{e: c.entry(app, seed)}
}

// cacheSource walks one entry's execution slots in order, lending each
// generated trace's events read-only.
type cacheSource struct {
	e    *traceEntry
	next int          // next execution to lend
	tr   *trace.Trace // current execution; nil before the first and after the last
}

// NextExec implements trace.Source.
func (s *cacheSource) NextExec() (string, int, bool) {
	if s.next >= len(s.e.slots) {
		s.tr = nil
		return "", 0, false
	}
	s.tr = s.e.exec(s.next)
	s.next++
	return s.tr.App, s.tr.Execution, true
}

// ExecEvents implements trace.Source: the current trace's own event
// slice.
func (s *cacheSource) ExecEvents() []trace.Event {
	if s.tr == nil {
		return nil
	}
	return s.tr.Events
}

// PinnedTrace implements trace.Pinned: the current execution is the
// cache's write-once trace, immutable for the cache's lifetime.
func (s *cacheSource) PinnedTrace() *trace.Trace { return s.tr }

// Err implements trace.Source; generation cannot fail.
func (s *cacheSource) Err() error { return nil }

// Reset implements trace.Source, rewinding to execution 0.
func (s *cacheSource) Reset() error {
	s.next, s.tr = 0, nil
	return nil
}

// Generations reports how many executions have actually been generated —
// one per distinct (app, seed, execution) requested, regardless of caller
// count.
func (c *TraceCache) Generations() int64 { return c.gens.Load() }
