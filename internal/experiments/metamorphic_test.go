package experiments

import (
	"reflect"
	"testing"

	"pcapsim/internal/fscache"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// relabel returns a copy of traces with f applied to every event.
func relabel(traces []*trace.Trace, f func(e *trace.Event)) []*trace.Trace {
	out := make([]*trace.Trace, len(traces))
	for i, tr := range traces {
		c := *tr
		c.Events = make([]trace.Event, len(tr.Events))
		for j, e := range tr.Events {
			f(&e)
			c.Events[j] = e
		}
		out[i] = &c
	}
	return out
}

// relabelPids maps every pid, a fork's child included, through f.
func relabelPids(f func(trace.PID) trace.PID) func(e *trace.Event) {
	return func(e *trace.Event) {
		e.Pid = f(e.Pid)
		if e.Kind == trace.KindFork {
			e.Child = f(e.Child)
		}
	}
}

// TestMetamorphicRelations: results must not depend on labels the model
// never reads. The model reads PCs only through equality of their sums
// and pids only through process identity and the combiner's pid-order
// tie-break. Each app's default-seed executions are replayed under every
// replay policy as generated and relabelled three ways, and every
// policy's result must be identical:
//   - every PC times an odd constant mod 2³², a bijection of uint32 that
//     keeps every equality between sum signatures;
//   - every pid + 1000;
//   - every pid p → 100000 − p, which reverses pid order.
//
// -short replays xemacs only.
func TestMetamorphicRelations(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	apps := workload.Apps()
	if testing.Short() {
		xemacs, _ := workload.ByName("xemacs")
		apps = []*workload.App{xemacs}
	}
	relations := []struct {
		name string
		f    func(e *trace.Event)
	}{
		{"pc-times-odd", func(e *trace.Event) { e.PC *= 0x9e3779b1 }},
		{"pid-plus-1000", relabelPids(func(p trace.PID) trace.PID { return p + 1000 })},
		{"pid-reversed", relabelPids(func(p trace.PID) trace.PID { return 100000 - p })},
	}
	policies := ReplayPolicyNames()
	for _, app := range apps {
		traces := app.Traces(s.Seed())
		want, err := s.ReplayRows(trace.NewSliceSource(traces...), policies)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range relations {
			t.Run(app.Name+"/"+rel.name, func(t *testing.T) {
				mapped := relabel(traces, rel.f)
				for _, tr := range mapped {
					for _, e := range tr.Events {
						if e.Pid == fscache.KernelFlushPID {
							t.Fatalf("the relabelling maps a pid onto the flush daemon's %d", e.Pid)
						}
					}
				}
				got, err := s.ReplayRows(trace.NewSliceSource(mapped...), policies)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Errorf("%s: relabelled result differs:\n%+v\nwant\n%+v", want[i].Policy, *got[i].Result, *want[i].Result)
					}
				}
			})
		}
	}
}
