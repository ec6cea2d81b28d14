// Command pcapload drives a pcapd daemon with sustained synchronous job
// traffic and reports throughput and latency — the measurement harness
// behind the recorded numbers in BENCH_PR9.json.
//
// Usage:
//
//	pcapload -addr 127.0.0.1:8080 -c 32 -duration 10s
//	pcapload -addr $(cat pcapd.addr) -c 32 -jobs eval:9,fleet:1 -json
//
// -c clients each run a closed loop: submit one job with ?wait=1, wait
// for the full result, submit the next. The -jobs mix weights job kinds
// ("eval:9,fleet:1"); each client walks a deterministic weighted
// schedule, so two runs against equal servers issue identical job
// sequences. Throughput (jobs/s) is completed jobs over the measurement
// wall clock; events/s is the delta of the server's own /stats event
// counter over the same window, so it measures simulation throughput,
// not transport. Latency percentiles are per-job round-trip times. Each
// job is an experiments.RunSpec, the body POST /jobs decodes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pcapsim/internal/experiments"
)

// statsSnap is the subset of /stats pcapload reads.
type statsSnap struct {
	Events   int64 `json:"events"`
	Execs    int64 `json:"execs"`
	JobsDone int64 `json:"jobs_done"`
}

// report is the run summary (also emitted as JSON with -json).
type report struct {
	Clients      int     `json:"clients"`
	DurationSec  float64 `json:"duration_sec"`
	Jobs         int64   `json:"jobs"`
	Errors       int64   `json:"errors"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	LatencyMaxMs float64 `json:"latency_max_ms"`
}

func main() {
	var (
		addrFlag     = flag.String("addr", "", "pcapd address (host:port), required")
		clientsFlag  = flag.Int("c", 32, "concurrent closed-loop clients")
		durationFlag = flag.Duration("duration", 10*time.Second, "measurement window")
		jobsFlag     = flag.String("jobs", "eval:1", "job mix as kind:weight,kind:weight (kinds: eval, fleet)")
		appFlag      = flag.String("app", "nedit", "application for eval jobs")
		policiesFlag = flag.String("policies", "base,tp,pcap", "policy list for every job")
		execsFlag    = flag.Int("execs", 5, "execution cap per eval job")
		machinesFlag = flag.Int("machines", 20, "machines per fleet job")
		sessionFlag  = flag.Float64("session", 120, "fleet per-machine session length (virtual seconds)")
		jsonFlag     = flag.Bool("json", false, "emit the report as JSON on stdout")
		benchFlag    = flag.Bool("benchline", false, "emit a go-bench-style result line (for benchjson / BENCH_PR*.json)")
	)
	flag.Parse()
	if *addrFlag == "" {
		fatal(fmt.Errorf("-addr is required (the pcapd host:port)"))
	}
	base := "http://" + strings.TrimPrefix(*addrFlag, "http://")
	policies := splitList(*policiesFlag)

	schedule, err := buildSchedule(*jobsFlag, func(kind string) experiments.RunSpec {
		switch kind {
		case experiments.KindEval:
			return experiments.RunSpec{Kind: kind, App: *appFlag, Policies: policies, Execs: *execsFlag}
		case experiments.KindFleet:
			return experiments.RunSpec{Kind: kind, Machines: *machinesFlag, DurationSec: *sessionFlag, Policies: policies}
		}
		return experiments.RunSpec{}
	})
	if err != nil {
		fatal(err)
	}

	// One warmup job primes the server's pooled contexts (workload
	// generation happens once, not inside the measured window).
	if _, err := runJob(base, schedule[0]); err != nil {
		fatal(fmt.Errorf("warmup job: %w", err))
	}

	before, err := readStats(base)
	if err != nil {
		fatal(err)
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		jobs      int64
		errs      int64
	)
	start := time.Now()
	deadline := start.Add(*durationFlag)
	var wg sync.WaitGroup
	for c := 0; c < *clientsFlag; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Stagger schedule entry per client so mixed kinds interleave.
			for i := c; time.Now().Before(deadline); i++ {
				spec := schedule[i%len(schedule)]
				t0 := time.Now()
				_, err := runJob(base, spec)
				lat := time.Since(t0)
				mu.Lock()
				if err != nil {
					errs++
				} else {
					jobs++
					latencies = append(latencies, lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := readStats(base)
	if err != nil {
		fatal(err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep := report{
		Clients:      *clientsFlag,
		DurationSec:  elapsed.Seconds(),
		Jobs:         jobs,
		Errors:       errs,
		JobsPerSec:   float64(jobs) / elapsed.Seconds(),
		EventsPerSec: float64(after.Events-before.Events) / elapsed.Seconds(),
		LatencyP50Ms: ms(percentile(latencies, 50)),
		LatencyP90Ms: ms(percentile(latencies, 90)),
		LatencyP99Ms: ms(percentile(latencies, 99)),
		LatencyMaxMs: ms(percentile(latencies, 100)),
	}
	if *benchFlag {
		// One line in `go test -bench` output format so cmd/benchjson can
		// fold the recorded load-generator run into the same BENCH_PR*.json
		// artifact as the in-process benchmarks. The client count is part
		// of the name: runs at different concurrency are different series.
		fmt.Printf("BenchmarkPcapdLoad%d \t%d\t%.1f jobs/s\t%.0f events/s\t%.3f p50-ms\t%.3f p99-ms\n",
			rep.Clients, rep.Jobs, rep.JobsPerSec, rep.EventsPerSec, rep.LatencyP50Ms, rep.LatencyP99Ms)
	} else if *jsonFlag {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("pcapload: %d clients, %.1fs, mix %s\n", rep.Clients, rep.DurationSec, *jobsFlag)
		fmt.Printf("  jobs:     %d completed, %d errors, %.1f jobs/s\n", rep.Jobs, rep.Errors, rep.JobsPerSec)
		fmt.Printf("  events:   %.0f events/s (server-side, from /stats)\n", rep.EventsPerSec)
		fmt.Printf("  latency:  p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, max %.1f ms\n",
			rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms, rep.LatencyMaxMs)
	}
	if errs > 0 {
		os.Exit(1)
	}
}

// buildSchedule expands a kind:weight mix into a repeating schedule of
// specs, e.g. "eval:3,fleet:1" → [eval eval eval fleet].
func buildSchedule(mix string, build func(kind string) experiments.RunSpec) ([]experiments.RunSpec, error) {
	var schedule []experiments.RunSpec
	for _, part := range splitList(mix) {
		kind, weightStr, hasWeight := strings.Cut(part, ":")
		kind = strings.TrimSpace(kind)
		weight := 1
		if hasWeight {
			w, err := strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil || w < 1 {
				return nil, fmt.Errorf("-jobs: bad weight in %q", part)
			}
			weight = w
		}
		spec := build(kind)
		if spec.Kind == "" {
			return nil, fmt.Errorf("-jobs: unknown job kind %q (want eval or fleet)", kind)
		}
		for i := 0; i < weight; i++ {
			schedule = append(schedule, spec)
		}
	}
	if len(schedule) == 0 {
		return nil, fmt.Errorf("-jobs: empty job mix")
	}
	return schedule, nil
}

// runJob submits one synchronous job and returns its terminal state.
func runJob(base string, spec experiments.RunSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := http.Post(base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //pcaplint:ignore errcheck-lite response body fully read below; close failure loses nothing
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var v struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return "", err
	}
	if v.State != "done" {
		return v.State, fmt.Errorf("job %s: %s", v.State, v.Error)
	}
	return v.State, nil
}

// readStats fetches the server's live counters.
func readStats(base string) (statsSnap, error) {
	resp, err := http.Get(base + "/stats")
	if err != nil {
		return statsSnap{}, err
	}
	defer resp.Body.Close() //pcaplint:ignore errcheck-lite response body fully decoded below; close failure loses nothing
	var s statsSnap
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return statsSnap{}, err
	}
	return s, nil
}

// percentile returns the p-th percentile of sorted latencies (nearest
// rank; p=100 is the max).
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := len(sorted)*p/100 - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pcapload:", err)
	os.Exit(1)
}
