package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pcapsim/internal/server"
)

func TestTailPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n         int
		want, pct float64
	}{
		{1, 1, 100},
		{10, 10, 100}, // no percentile has ten samples beyond it
		{19, 19, 100}, // p45 would have ten beyond it: below the median
		{20, 10, 50},
		{21, 11, 100.0 * 11 / 21},
		{500, 490, 98},
		{1000, 990, 99},
		{5000, 4950, 99},
	}
	for _, c := range cases {
		got, pct := tail(ramp(c.n))
		if got != c.want || pct != c.pct {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", c.n, got, pct, c.want, c.pct)
		}
	}
	for n := 20; n <= 3000; n++ {
		xs := ramp(n)
		v, _ := tail(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 {
			t.Fatalf("n=%d: tail %v has %d samples beyond it, want at least 10", n, v, beyond)
		}
		if p99 := math.Ceil(0.99 * float64(n)); n >= 1000 && v != p99 {
			t.Fatalf("n=%d: tail %v, want p99 %v", n, v, p99)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		// Overlapping children (two workers) cover [10, 50).
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		// A child reaching past its parent counts only inside it.
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},
		// A grandchild is covered by its own parent, not by the root.
		{ID: 5, Parent: 3, Name: "c", Start: 25, End: 35},
		{ID: 6, Name: "op", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := []time.Duration{50, 20, 20, 30, 10, 10}
	if !slices.Equal(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := byName(spans)
	if got := layers["a"]; got.count != 2 || got.total != 50 || got.self != 40 {
		t.Errorf("layer a = %+v", got)
	}
	if got := unattributed(layers); got != 60.0/110 {
		t.Errorf("unattributed = %v, want %v", got, 60.0/110)
	}
}

func TestScheduleDeterminism(t *testing.T) {
	jobs := pcapdJobs("t1")
	walk := func(seed uint64, client, n int) []int {
		s := newSchedule(jobs, seed, client)
		out := make([]int, n)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	pass := 0
	for _, j := range jobs {
		if j.spec.Kind == server.KindReplay {
			pass += replayWeight
		} else {
			pass++
		}
	}
	a := walk(7, 0, 3*pass)
	if b := walk(7, 0, 3*pass); !slices.Equal(a, b) {
		t.Fatal("the same seed and client gave different schedules")
	}
	if slices.Equal(a, walk(8, 0, 3*pass)) || slices.Equal(a, walk(7, 1, 3*pass)) {
		t.Error("another seed or client gave the same schedule")
	}
	if slices.Equal(a[:pass], a[pass:2*pass]) {
		t.Error("consecutive passes share one order")
	}
	// Every pass holds each eval job once and each replay job
	// replayWeight times.
	for p := range 3 {
		counts := make([]int, len(jobs))
		for _, i := range a[p*pass : (p+1)*pass] {
			counts[i]++
		}
		for i, j := range jobs {
			want := 1
			if j.spec.Kind == server.KindReplay {
				want = replayWeight
			}
			if counts[i] != want {
				t.Fatalf("pass %d runs job %d %d times, want %d", p, i, counts[i], want)
			}
		}
	}
}

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range c.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

// buildPcapd builds pcapd from the repository into a temp dir.
func buildPcapd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pcapd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pcapd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pcapd: %v\n%s", err, out)
	}
	return bin
}

// smoke runs one workload for a one-operation window and returns its
// parsed result line.
func smoke(t *testing.T, name string, traced bool, pcapd string, corrupt func(int, string) string) *report {
	t.Helper()
	var log bytes.Buffer
	e := &env{
		seed:    defaultSeed,
		window:  time.Millisecond,
		traced:  traced,
		root:    "..",
		pcapd:   pcapd,
		dir:     t.TempDir(),
		log:     &log,
		corrupt: corrupt,
	}
	rep, err := workloads[name](e)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := rep.write(&log); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(log.String()), "\n")
	var got report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("%s: last line is not the result object: %v\n%s", name, err, log.String())
	}
	if !strings.Contains(log.String(), "failed_frac") {
		t.Errorf("%s: output does not print failed_frac", name)
	}
	return &got
}

func TestWorkloadSmoke(t *testing.T) {
	endToEnd, perLayer := contract(t)
	var pcapd string
	names := []string{"fleet", "pcapd", "matrix"}
	if testing.Short() {
		names = names[:2] // one matrix operation takes seconds
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			if name == "pcapd" && pcapd == "" {
				pcapd = buildPcapd(t)
			}
			for _, traced := range []bool{false, true} {
				got := smoke(t, name, traced, pcapd, nil)
				if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v failed=%d attempted=%d", traced, got.Correct, got.Failed, got.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				var keys []string
				for k := range got.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if !slices.Equal(keys, want) {
					t.Errorf("traced=%v: metrics %v, want %v", traced, keys, want)
				}
				for k, m := range got.Metrics {
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", k, m.Value)
					}
				}
			}

			// A wrong answer must count as a failed operation.
			wrong := smoke(t, name, false, pcapd, func(_ int, out string) string { return out + "x" })
			if wrong.Correct || wrong.Failed == 0 || wrong.Failed != wrong.Attempted {
				t.Errorf("injected wrong output: correct=%v failed=%d attempted=%d", wrong.Correct, wrong.Failed, wrong.Attempted)
			}
		})
	}
}
