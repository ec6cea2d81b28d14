package workload

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"pcapsim/internal/trace"
)

// pinned drains src and returns the trace it pinned for each execution
// (trace.PinnedTrace). slices.Equal on two results compares the trace
// pointers: the sharing guarantee, stronger than deep equality. It
// reports a source error with t.Error, so it may run on any goroutine.
func pinned(t *testing.T, src trace.Source) []*trace.Trace {
	t.Helper()
	var out []*trace.Trace
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		out = append(out, trace.PinnedTrace(src))
	}
	if err := src.Err(); err != nil {
		t.Error(err)
	}
	return out
}

// TestTraceCache drives the memoization contract table-style: for every
// (app, seed) workload below, concurrent sources must observe exactly one
// generation per execution and lend the identical traces.
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
					results[i] = pinned(t, c.Source(app, tc.seed))
				}()
			}
			wg.Wait()
			for i, r := range results {
				if len(r) != app.Executions {
					t.Fatalf("caller %d: %d traces, want %d", i, len(r), app.Executions)
				}
				if !slices.Equal(r, results[0]) {
					t.Errorf("caller %d received different traces than caller 0", i)
				}
			}
			if got := c.Generations(); got != before+int64(app.Executions) {
				t.Errorf("generations went %d -> %d, want exactly one per execution (%d)", before, got, app.Executions)
			}
			// A repeat source is a pure cache hit.
			if again := pinned(t, c.Source(app, tc.seed)); !slices.Equal(again, results[0]) {
				t.Error("repeat source lent different traces")
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
	a := pinned(t, c.Source(app, 1))
	b := pinned(t, c.Source(app, 2))
	if a[0] == b[0] {
		t.Fatal("seeds 1 and 2 share a cache entry")
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
	a := pinned(t, c.Source(nedit, 7))
	b := pinned(t, c.Source(xemacs, 7))
	if a[0] == b[0] {
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
	a := pinned(t, NewTraceCache().Source(app, 42))
	b := pinned(t, NewTraceCache().Source(app, 42))
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
// generates only those, and a later whole source lends the very traces
// already lent and generates only the rest.
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
	all := pinned(t, c.Source(app, 3))
	if got := c.Generations(); got != int64(app.Executions) {
		t.Fatalf("whole source after a capped one: %d generations in all, want %d", got, app.Executions)
	}
	for i, ev := range lent {
		if !sameEvents(ev, all[i].Events) {
			t.Errorf("execution %d: the whole source lent a different trace than the capped one", i)
		}
	}
	// A further source over the warm entry lends the same traces again.
	for i, ev := range drain(t, c.Source(app, 3)) {
		if !sameEvents(ev, all[i].Events) {
			t.Errorf("execution %d: a third source lent a different trace", i)
		}
	}
	if got := c.Generations(); got != int64(app.Executions) {
		t.Errorf("third source regenerated: %d generations, want %d", got, app.Executions)
	}
}

// TestTraceCachePinsTraces: a source lends each execution as the cache's
// own trace (trace.Pinned), whose events are the slice ExecEvents lends,
// equal to a fresh generation of that execution; a stream regenerates
// and lends none.
func TestTraceCachePinsTraces(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("nedit")
	src := c.Source(app, 3)
	for i := 0; ; i++ {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		p := trace.PinnedTrace(src)
		if p == nil || !sameEvents(p.Events, src.ExecEvents()) {
			t.Fatalf("execution %d: pinned trace %p does not lend ExecEvents", i, p)
		}
		if !reflect.DeepEqual(p, app.Trace(3, i)) {
			t.Fatalf("execution %d: pinned trace differs from App.Trace", i)
		}
	}
	if p := trace.PinnedTrace(src); p != nil {
		t.Errorf("exhausted source still pins execution %d", p.Execution)
	}
	stream := app.Stream(3)
	if _, _, ok := stream.NextExec(); !ok || trace.PinnedTrace(stream) != nil {
		t.Errorf("stream lends a pinned trace")
	}
}

// TestTraceCacheConcurrentExecs: whole and capped sources racing on one
// cold (app, seed) generate each execution exactly once and all lend the
// same traces. Run it under -race.
func TestTraceCacheConcurrentExecs(t *testing.T) {
	c := NewTraceCache()
	app, _ := ByName("xemacs")
	const workers = 12
	lent := make([][]*trace.Trace, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				lent[w] = pinned(t, c.Source(app, 5))
			} else {
				lent[w] = pinned(t, trace.LimitExecs(c.Source(app, 5), w))
			}
		}()
	}
	wg.Wait()
	if got := c.Generations(); got != int64(app.Executions) {
		t.Fatalf("%d generations, want exactly one per execution (%d)", got, app.Executions)
	}
	all := lent[0]
	for w := 0; w < workers; w++ {
		if !slices.Equal(lent[w], all[:len(lent[w])]) {
			t.Errorf("source %d lent different traces than source 0", w)
		}
	}
}
