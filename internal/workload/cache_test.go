package workload

import (
	"sync"
	"testing"

	"pcapsim/internal/trace"
)

// sameSlice reports whether two trace slices are the identical backing
// array (the sharing guarantee, stronger than deep equality).
func sameSlice(a, b []*trace.Trace) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// TestTraceCache drives the memoization contract table-style: for every
// (app, seed) workload below, concurrent callers must observe exactly one
// generation per execution and receive the identical slice.
func TestTraceCache(t *testing.T) {
	cases := []struct {
		name    string
		app     string
		seed    uint64
		callers int
	}{
		{name: "nedit-single-caller", app: "nedit", seed: 1, callers: 1},
		{name: "nedit-concurrent", app: "nedit", seed: 2, callers: 16},
		{name: "xemacs-concurrent", app: "xemacs", seed: 2, callers: 8},
		{name: "nedit-default-seed", app: "nedit", seed: 20040214, callers: 4},
	}
	c := NewTraceCache()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			app, ok := ByName(tc.app)
			if !ok {
				t.Fatalf("unknown app %s", tc.app)
			}
			before := c.Generations()
			results := make([][]*trace.Trace, tc.callers)
			var wg sync.WaitGroup
			for i := range results {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = c.Traces(app, tc.seed)
				}()
			}
			wg.Wait()
			for i, r := range results {
				if len(r) != app.Executions {
					t.Fatalf("caller %d: %d traces, want %d", i, len(r), app.Executions)
				}
				if !sameSlice(r, results[0]) {
					t.Errorf("caller %d received a different slice than caller 0", i)
				}
			}
			if got := c.Generations(); got != before+int64(app.Executions) {
				t.Errorf("generations went %d -> %d, want exactly one per execution (%d)", before, got, app.Executions)
			}
			// A repeat call is a pure cache hit.
			if again := c.Traces(app, tc.seed); !sameSlice(again, results[0]) {
				t.Error("repeat call returned a different slice")
			}
			if got := c.Generations(); got != before+int64(app.Executions) {
				t.Errorf("repeat call regenerated: %d generations, want %d", got, before+int64(app.Executions))
			}
		})
	}
}

// TestTraceCacheSeedIsolation checks that distinct seeds never share cache
// entries, and that the traces they produce really differ.
func TestTraceCacheSeedIsolation(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("nedit")
	a := c.Traces(app, 1)
	b := c.Traces(app, 2)
	if sameSlice(a, b) {
		t.Fatal("seeds 1 and 2 share a cache entry")
	}
	if c.Len() != 2 {
		t.Fatalf("cache has %d entries, want 2", c.Len())
	}
	if want := int64(2 * app.Executions); c.Generations() != want {
		t.Fatalf("%d generations, want %d", c.Generations(), want)
	}
	// Seed changes the user behaviour, so event streams must diverge.
	differ := false
	for i := range a {
		if a[i].Len() != b[i].Len() {
			differ = true
			break
		}
	}
	if !differ {
		// Same lengths everywhere is suspicious but possible; compare times.
	outer:
		for i := range a {
			for j := range a[i].Events {
				if a[i].Events[j].Time != b[i].Events[j].Time {
					differ = true
					break outer
				}
			}
		}
	}
	if !differ {
		t.Error("seeds 1 and 2 generated identical traces")
	}
}

// TestTraceCacheAppIsolation checks that different apps get separate
// entries under the same seed.
func TestTraceCacheAppIsolation(t *testing.T) {
	c := NewTraceCache()
	nedit, _ := ByName("nedit")
	xemacs, _ := ByName("xemacs")
	a := c.Traces(nedit, 7)
	b := c.Traces(xemacs, 7)
	if sameSlice(a, b) {
		t.Fatal("nedit and xemacs share a cache entry")
	}
	if a[0].App != "nedit" || b[0].App != "xemacs" {
		t.Fatalf("mislabelled traces: %s / %s", a[0].App, b[0].App)
	}
	if want := int64(nedit.Executions + xemacs.Executions); c.Generations() != want {
		t.Fatalf("%d generations, want %d", c.Generations(), want)
	}
}

// TestTraceCacheDeterminism checks that a cold cache regenerates
// byte-identical traces — the property the experiment engine's
// determinism contract rests on.
func TestTraceCacheDeterminism(t *testing.T) {
	app, _ := ByName("nedit")
	a := NewTraceCache().Traces(app, 42)
	b := NewTraceCache().Traces(app, 42)
	if len(a) != len(b) {
		t.Fatalf("trace counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Events) != len(b[i].Events) {
			t.Fatalf("exec %d: event counts differ", i)
		}
		for j := range a[i].Events {
			if a[i].Events[j] != b[i].Events[j] {
				t.Fatalf("exec %d event %d differs: %v vs %v", i, j, a[i].Events[j], b[i].Events[j])
			}
		}
	}
}

// drain pulls every execution of src and returns the event slices it
// lent, in order. It reports a source error with t.Error, so it may run
// on any goroutine.
func drain(t *testing.T, src trace.Source) [][]trace.Event {
	t.Helper()
	var lent [][]trace.Event
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		lent = append(lent, src.ExecEvents())
	}
	if err := src.Err(); err != nil {
		t.Error(err)
	}
	return lent
}

// sameEvents reports whether two event slices share one backing array.
func sameEvents(a, b []trace.Event) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// TestTraceCacheCappedSource: a source capped at its first executions
// generates only those, and a later Traces call hands back the very
// traces already lent and generates only the rest.
func TestTraceCacheCappedSource(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("nedit")
	lent := drain(t, trace.LimitExecs(c.Source(app, 3), 2))
	if len(lent) != 2 {
		t.Fatalf("capped source yielded %d executions, want 2", len(lent))
	}
	if got := c.Generations(); got != 2 {
		t.Fatalf("capped source generated %d executions, want 2", got)
	}
	all := c.Traces(app, 3)
	if got := c.Generations(); got != int64(app.Executions) {
		t.Fatalf("Traces after a capped source: %d generations in all, want %d", got, app.Executions)
	}
	for i, ev := range lent {
		if !sameEvents(ev, all[i].Events) {
			t.Errorf("execution %d: Traces returned a different trace than the source lent", i)
		}
	}
	// A full source over the warm entry lends the same traces again.
	for i, ev := range drain(t, c.Source(app, 3)) {
		if !sameEvents(ev, all[i].Events) {
			t.Errorf("execution %d: a second source lent a different trace", i)
		}
	}
	if got := c.Generations(); got != int64(app.Executions) {
		t.Errorf("second source regenerated: %d generations, want %d", got, app.Executions)
	}
}

// TestTraceCachePinsTraces: a pinned-mode source lends each execution
// as the cache's own trace (trace.Pinned), whose events are the slice
// ExecEvents lends; an on-demand stream regenerates and lends none.
func TestTraceCachePinsTraces(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("nedit")
	all := c.Traces(app, 3)
	src := c.Source(app, 3)
	for i := 0; ; i++ {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		if p := trace.PinnedTrace(src); p != all[i] || !sameEvents(p.Events, src.ExecEvents()) {
			t.Fatalf("execution %d: pinned trace %p, want the cache's %p lending ExecEvents", i, p, all[i])
		}
	}
	if p := trace.PinnedTrace(src); p != nil {
		t.Errorf("exhausted source still pins execution %d", p.Execution)
	}
	c.SetOnDemand(true)
	stream := c.Source(app, 3)
	if _, _, ok := stream.NextExec(); !ok || trace.PinnedTrace(stream) != nil {
		t.Errorf("on-demand stream lends a pinned trace")
	}
}

// TestTraceCacheConcurrentExecs: sources (capped and whole) and Traces
// callers racing on one cold (app, seed) generate each execution exactly
// once and all see the same traces. Run it under -race.
func TestTraceCacheConcurrentExecs(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("xemacs")
	const workers = 12
	lent := make([][][]trace.Event, workers)
	whole := make([][]*trace.Trace, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w % 3 {
			case 0:
				whole[w] = c.Traces(app, 5)
			case 1:
				lent[w] = drain(t, c.Source(app, 5))
			default:
				lent[w] = drain(t, trace.LimitExecs(c.Source(app, 5), w))
			}
		}()
	}
	wg.Wait()
	if got := c.Generations(); got != int64(app.Executions) {
		t.Fatalf("%d generations, want exactly one per execution (%d)", got, app.Executions)
	}
	all := c.Traces(app, 5)
	for w := 0; w < workers; w++ {
		if whole[w] != nil && !sameSlice(whole[w], all) {
			t.Errorf("Traces caller %d received a different slice", w)
		}
		for i, ev := range lent[w] {
			if !sameEvents(ev, all[i].Events) {
				t.Errorf("source %d, execution %d: lent a different trace than Traces holds", w, i)
			}
		}
	}
}
