package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// rewindRefused is a source that cannot rewind: a one-pass replay never
// asks it to.
type rewindRefused struct{ trace.Source }

func (rewindRefused) Reset() error { return errors.New("rewind refused") }

// nextCounter counts NextExec calls on the source it wraps.
type nextCounter struct {
	trace.Source
	calls int
}

func (c *nextCounter) NextExec() (string, int, bool) {
	c.calls++
	return c.Source.NextExec()
}

// TestReplayRowsOnePass: ReplayRows runs every policy in one pass over
// the source, and each row equals a solo RunSource of that policy over a
// fresh copy of the source — for a v2 block source, an execution-capped
// source and a source that cannot rewind.
func TestReplayRowsOnePass(t *testing.T) {
	s, err := NewSuite(DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := workload.ByName("nedit")
	traces := app.Traces(s.Seed())
	v2 := encodeV2(t, traces)
	policies := []string{"base", "tp", "pcap", "ideal"}

	for _, tc := range []struct {
		name string
		open func() trace.Source
	}{
		{"v2", func() trace.Source { return trace.NewBlockSource(bytes.NewReader(v2)) }},
		{"limit", func() trace.Source { return trace.LimitExecs(trace.NewSliceSource(traces...), 3) }},
		{"no-reset", func() trace.Source { return rewindRefused{trace.NewSliceSource(traces...)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := s.ReplayRows(tc.open(), policies)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) != len(policies) {
				t.Fatalf("%d rows for %d policies", len(rows), len(policies))
			}
			for i, name := range policies {
				pol, _ := s.PolicyByName(name)
				want, err := s.runner.RunSource(tc.open(), pol)
				if err != nil {
					t.Fatal(err)
				}
				if rows[i].Policy != pol.Name {
					t.Errorf("row %d is %s, want %s", i, rows[i].Policy, pol.Name)
				}
				if !reflect.DeepEqual(rows[i].Result, want) {
					t.Errorf("%s: one-pass result differs from a solo run:\n%+v\nvs\n%+v", pol.Name, rows[i].Result, want)
				}
			}
		})
	}

	t.Run("unknown", func(t *testing.T) {
		src := &nextCounter{Source: trace.NewSliceSource(traces...)}
		_, err := s.ReplayRows(src, []string{"base", "nope"})
		if err == nil || !strings.Contains(err.Error(), `unknown policy "nope"`) {
			t.Errorf("err = %v, want an unknown-policy error", err)
		}
		if src.calls != 0 {
			t.Errorf("NextExec called %d times before the policy list was resolved", src.calls)
		}
	})

	t.Run("cell error", func(t *testing.T) {
		_, err := s.ReplayRows(trace.NewSliceSource(), policies)
		if err == nil || !strings.HasPrefix(err.Error(), "experiments: replay under Base: ") {
			t.Errorf("err = %v, want the first cell's error wrapped with its policy", err)
		}
	})
}
