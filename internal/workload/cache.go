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
// exactly once, when the first Source reaches it or a Traces call needs
// it; concurrent callers block on that generation and all receive the
// identical *trace.Trace. A source capped at its first N executions
// (trace.LimitExecs) therefore generates and pins only those N. Distinct
// seeds never share an entry.
//
// In on-demand mode (SetOnDemand) the cache stops pinning traces: Source
// hands out regenerating streams instead, trading repeated generation for
// O(one execution) memory.
type TraceCache struct {
	mu       sync.Mutex
	m        map[traceKey]*traceEntry
	gens     atomic.Int64
	onDemand bool
}

type traceKey struct {
	app  string
	seed uint64
}

// traceEntry holds one (app, seed) workload: a write-once slot per
// execution, and the whole-workload slice Traces builds once from them.
type traceEntry struct {
	app   *App
	seed  uint64
	gens  *atomic.Int64
	slots []execSlot

	all    sync.Once
	traces []*trace.Trace
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

// Traces returns all execution traces of app for seed, generating the
// ones no source has reached yet. The returned slice is built once and
// shared, and holds the same traces sources lend: callers must treat it
// (and the traces it holds) as read-only.
func (c *TraceCache) Traces(app *App, seed uint64) []*trace.Trace {
	e := c.entry(app, seed)
	e.all.Do(func() {
		traces := make([]*trace.Trace, len(e.slots))
		for i := range traces {
			traces[i] = e.exec(i)
		}
		e.traces = traces
	})
	return e.traces
}

// Source returns a trace.Source over the app's executions for seed. In
// the default (pinned) mode it reads the cache's per-execution slots,
// generating each execution only when NextExec reaches it, so concurrent
// callers share one generation per execution; in on-demand mode it
// returns a fresh regenerating Stream and pins nothing. Each call returns
// an independent iterator — sources are single-goroutine values.
func (c *TraceCache) Source(app *App, seed uint64) trace.Source {
	c.mu.Lock()
	onDemand := c.onDemand
	c.mu.Unlock()
	if onDemand {
		return app.Stream(seed)
	}
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

// SetOnDemand switches the cache between pinned (false, the default) and
// regenerate-on-demand (true) modes. Enabling it releases every pinned
// entry. Already-issued sources are unaffected.
func (c *TraceCache) SetOnDemand(v bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onDemand = v
	if v {
		c.m = make(map[traceKey]*traceEntry)
	}
}

// OnDemand reports whether the cache is in regenerate-on-demand mode.
func (c *TraceCache) OnDemand() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.onDemand
}

// Generations reports how many executions have actually been generated —
// one per distinct (app, seed, execution) requested, regardless of caller
// count.
func (c *TraceCache) Generations() int64 { return c.gens.Load() }

// Len returns the number of (app, seed) entries in the cache.
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
