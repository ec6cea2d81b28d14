package persist

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"pcapsim/internal/core"
	"pcapsim/internal/ltree"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// decisionSeed is the experiment suite's default workload seed.
const decisionSeed = 20040214

// learner is a predictor with learned state and its initialization-file
// round trip.
type learner struct {
	name string
	// fresh returns an untrained predictor.
	fresh func() predictor.Factory
	// save writes f's learned state; load reads it into an untrained
	// predictor.
	save func(w *bytes.Buffer, f predictor.Factory) error
	load func(r *bytes.Buffer, f predictor.Factory) error
}

func learners() []learner {
	var ls []learner
	for _, v := range []core.Variant{core.VariantBase, core.VariantH, core.VariantF, core.VariantFH} {
		ls = append(ls, learner{
			name:  v.String(),
			fresh: func() predictor.Factory { return core.MustNew(core.DefaultConfig(v)) },
			save:  func(w *bytes.Buffer, f predictor.Factory) error { return SaveTable(w, "", f.(*core.PCAP)) },
			load:  func(r *bytes.Buffer, f predictor.Factory) error { return LoadTable(r, "", f.(*core.PCAP)) },
		})
	}
	return append(ls, learner{
		name:  "LT",
		fresh: func() predictor.Factory { return ltree.MustNew(ltree.DefaultConfig()) },
		save:  func(w *bytes.Buffer, f predictor.Factory) error { return SaveTree(w, "", f.(*ltree.LT)) },
		load:  func(r *bytes.Buffer, f predictor.Factory) error { return LoadTree(r, "", f.(*ltree.LT)) },
	})
}

// runWith simulates traces with f as the reused predictor, recording
// every decision.
func runWith(r *sim.Runner, name string, f predictor.Factory, traces []*trace.Trace) (*sim.AppResult, []trace.DecisionRecord, error) {
	pol := sim.Policy{Name: name, NewFactory: func() predictor.Factory { return f }, Reuse: true}
	var log trace.DecisionLog
	res, err := r.RunSourceTraced(trace.NewSliceSource(traces...), pol, sim.TraceOptions{Sink: &log})
	return res, log.Records, err
}

// TestReloadedPredictorDecidesAlike checks the initialization-file round
// trip by what it must preserve: the decisions. For every app, each PCAP
// variant and LT is trained through the simulator over executions
// 0..k−1, saved, and loaded into a fresh predictor. Execution k must then
// run identically under the original and the reloaded predictor: the
// same AppResult and the same decision records. An untrained predictor
// must differ on at least one app, so the check can see lost state.
func TestReloadedPredictorDecidesAlike(t *testing.T) {
	r := sim.MustNewRunner(sim.DefaultConfig())
	for _, l := range learners() {
		sawLearning := false
		for _, app := range workload.Apps() {
			traces := app.Traces(decisionSeed)
			k := len(traces) - 1
			where := l.name + " on " + app.Name

			trained := l.fresh()
			if _, _, err := runWith(r, l.name, trained, traces[:k]); err != nil {
				t.Fatalf("%s: training: %v", where, err)
			}
			var buf bytes.Buffer
			if err := l.save(&buf, trained); err != nil {
				t.Fatalf("%s: save: %v", where, err)
			}
			reloaded := l.fresh()
			if err := l.load(&buf, reloaded); err != nil {
				t.Fatalf("%s: load: %v", where, err)
			}
			untrained := l.fresh()

			want, wantLog, err := runWith(r, l.name, trained, traces[k:])
			if err != nil {
				t.Fatal(err)
			}
			got, gotLog, err := runWith(r, l.name, reloaded, traces[k:])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
				t.Errorf("%s: execution %d after reload\n got %+v\nwant %+v", where, k, got, want)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Errorf("%s: execution %d after reload: decision records differ (%d vs %d records)", where, k, len(gotLog), len(wantLog))
			}
			cold, _, err := runWith(r, l.name, untrained, traces[k:])
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprintf("%+v", cold) != fmt.Sprintf("%+v", want) {
				sawLearning = true
			}
		}
		if !sawLearning {
			t.Errorf("%s: an untrained predictor matches the trained one on every app; the check cannot see lost state", l.name)
		}
	}
}
