package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// newTestServer starts a server over a real TCP listener (httptest) so
// requests cross an actual network boundary, and tears it down with the
// test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	checkGoroutines(t)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return srv, hs
}

// checkGoroutines fails the test unless, after every cleanup the test
// registers later (stopping its servers among them), the goroutine count
// falls back to its value now within 2 s. Idle keep-alive connections of
// the default client are closed first: their reader and writer
// goroutines belong to the client, not to a leak.
func checkGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Errorf("%d goroutines 2 s after the server stopped, %d before:\n%s", n, before, buf)
		}
	})
}

// submitWait posts a job spec with ?wait=1 and decodes the final view.
func submitWait(t *testing.T, base string, spec JobSpec) View {
	t.Helper()
	v, status := submitWaitStatus(t, base, spec)
	if status != http.StatusOK {
		t.Fatalf("POST /jobs?wait=1 status %d: %+v", status, v)
	}
	return v
}

func submitWaitStatus(t *testing.T, base string, spec JobSpec) (View, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatalf("decoding job view: %v", err)
	}
	return v, resp.StatusCode
}

// submitAsync posts a job spec without waiting and returns its view.
func submitAsync(t *testing.T, base string, spec JobSpec) View {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /jobs status %d: %s", resp.StatusCode, b)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// getJob polls a job's view.
func getJob(t *testing.T, base, id string) View {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// writeTraceFile writes nedit's generated workload as a v2 columnar
// file and returns its path. Small but real: every policy sees the same
// executions the generator produces.
func writeTraceFile(t *testing.T, dir string) string {
	t.Helper()
	return writeAppTraceFile(t, dir, "nedit", 1)
}

// writeAppTraceFile writes the named app's generated workload, repeated
// copies times, as one v2 columnar file and returns its path.
func writeAppTraceFile(t *testing.T, dir, name string, copies int) string {
	t.Helper()
	app, _ := workload.ByName(name)
	traces := app.Traces(experiments.DefaultSeed)
	var buf bytes.Buffer
	for range copies {
		for _, tr := range traces {
			if err := trace.WriteColumnar(&buf, tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join(dir, name+".pct2")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// evalPolicies keeps test jobs fast.
var evalPolicies = []string{"base", "tp", "pcap"}

// runLocal runs spec as pcapsim does, through RunSpec.Run with a zero
// environment, and returns its output.
func runLocal(t *testing.T, spec JobSpec) string {
	t.Helper()
	out, err := spec.Run(context.Background(), experiments.RunEnv{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEvalMatchesLocalAtAnyPoolSize is the determinism contract across
// the network boundary: an eval job's Output must be byte-identical to
// the local library run, at every worker-pool size.
func TestEvalMatchesLocalAtAnyPoolSize(t *testing.T) {
	spec := JobSpec{Kind: KindEval, App: "nedit", Policies: evalPolicies}
	want := runLocal(t, spec)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, hs := newTestServer(t, Config{Workers: workers})
			v := submitWait(t, hs.URL, spec)
			if v.State != StateDone {
				t.Fatalf("state = %q, error = %q", v.State, v.Error)
			}
			if v.Output != want {
				t.Errorf("server output differs from local run:\n--- server ---\n%s\n--- local ---\n%s", v.Output, want)
			}
		})
	}
}

// TestReplayMatchesLocal covers both trace reference styles — an upload
// and a path inside the server's trace directory — against the local
// run of the same spec over the resolved path, including a predicate and
// parallel decode.
func TestReplayMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceFile(t, dir)
	srv, hs := newTestServer(t, Config{Workers: 2, TraceDir: dir})

	// check submits spec and compares the job's output with the local run
	// of the same spec over path, the reference's resolved file.
	check := func(t *testing.T, spec JobSpec, path string) {
		t.Helper()
		local := spec
		local.Trace = path
		want := runLocal(t, local)
		v := submitWait(t, hs.URL, spec)
		if v.State != StateDone {
			t.Fatalf("state = %q, error = %q", v.State, v.Error)
		}
		if v.Output != want {
			t.Errorf("server replay differs from local:\n--- server ---\n%s\n--- local ---\n%s", v.Output, want)
		}
	}

	t.Run("path", func(t *testing.T) {
		check(t, JobSpec{Kind: KindReplay, Trace: "nedit.pct2", Policies: evalPolicies}, path)
	})

	t.Run("upload", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(hs.URL+"/traces", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var up struct {
			ID string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&up)
		resp.Body.Close()
		if err != nil || up.ID == "" {
			t.Fatalf("upload: id=%q err=%v", up.ID, err)
		}
		// The server renders the upload's stored path; replay that same
		// path locally.
		storedPath, err := srv.resolveTrace(up.ID)
		if err != nil {
			t.Fatal(err)
		}
		check(t, JobSpec{Kind: KindReplay, Trace: up.ID, Policies: evalPolicies, Workers: 2}, storedPath)
	})

	t.Run("predicate", func(t *testing.T) {
		check(t, JobSpec{Kind: KindReplay, Trace: "nedit.pct2", Policies: evalPolicies, ToSec: 30}, path)
	})
}

// TestFleetMatchesLocal pins fleet jobs to the local run of the same
// spec.
func TestFleetMatchesLocal(t *testing.T) {
	policies := []string{"base", "tp"}
	spec := JobSpec{Kind: KindFleet, Machines: 20, DurationSec: 120, Policies: policies, Workers: 2}
	want := runLocal(t, spec)
	_, hs := newTestServer(t, Config{Workers: 2})
	v := submitWait(t, hs.URL, spec)
	if v.State != StateDone {
		t.Fatalf("state = %q, error = %q", v.State, v.Error)
	}
	if v.Output != want {
		t.Errorf("server fleet differs from local:\n--- server ---\n%s\n--- local ---\n%s", v.Output, want)
	}
	if v.Machines != 20*int64(len(policies)) {
		t.Errorf("Machines progress = %d, want %d", v.Machines, 20*len(policies))
	}
}

// TestFarFutureReplayFinishes: a replay of a trace whose second I/O lies
// 9×10¹⁷ µs after its first ends done within its timeout, the flush
// daemon's idle wakes between them skipped rather than stepped.
func TestFarFutureReplayFinishes(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	err := trace.WriteText(&buf, &trace.Trace{App: "far", Events: []trace.Event{
		{Time: 1000, Pid: 1, Kind: trace.KindIO, Access: trace.AccessWrite, PC: 0x1000, FD: 3, Block: 5, Size: 4096},
		{Time: 9e17, Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead, PC: 0x2000, FD: 3, Block: 9, Size: 4096},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "far.txt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Workers: 1, TraceDir: dir})
	v := submitWait(t, hs.URL, JobSpec{Kind: KindReplay, Trace: "far.txt", TimeoutSec: 10})
	if v.State != StateDone {
		t.Fatalf("state = %q, error = %q; want done within the 10 s timeout", v.State, v.Error)
	}
}

// TestInvalidTraceFailsJob: a replay job over each trace that the
// simulator rejects ends failed with sim's invalid-execution error, not
// done with a report. Among them, time runs backwards, a process reaches
// the disk after its exit, and one 2 GiB read would become half a million
// disk accesses that the job could not cancel midway.
func TestInvalidTraceFailsJob(t *testing.T) {
	dir := t.TempDir()
	invalid := filepath.Join("..", "sim", "testdata", "invalid")
	entries, err := os.ReadDir(invalid)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(invalid, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
	}
	if !slices.Contains(names, "oversize-io.txt") {
		t.Fatalf("%s holds %v, without the oversize I/O", invalid, names)
	}
	_, hs := newTestServer(t, Config{Workers: 1, TraceDir: dir})
	for _, name := range names {
		v := submitWait(t, hs.URL, JobSpec{Kind: KindReplay, Trace: name, Policies: evalPolicies})
		if v.State != StateFailed || !strings.Contains(v.Error, "sim: invalid execution") {
			t.Errorf("%s: state = %q, error = %q; want failed with an invalid-execution error", name, v.State, v.Error)
		}
	}
}

// TestConcurrentJobsExactCounters is the server-level exactness test:
// many identical jobs race across the pool (run under -race by ci.sh),
// and the global counters must equal per-job totals times the job count
// — no add lost or doubled across workers.
func TestConcurrentJobsExactCounters(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 64})

	// One reference job fixes the per-job totals.
	ref := submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: evalPolicies, Execs: 5})
	if ref.State != StateDone {
		t.Fatalf("reference job: state = %q, error = %q", ref.State, ref.Error)
	}
	if ref.Events == 0 || ref.Execs == 0 || ref.EnergyJ == 0 {
		t.Fatalf("reference job reported no progress: %+v", ref)
	}

	const extra = 12
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: evalPolicies, Execs: 5})
			if v.State != StateDone {
				t.Errorf("job state = %q, error = %q", v.State, v.Error)
			}
			if v.Events != ref.Events || v.Execs != ref.Execs || v.EnergyJ != ref.EnergyJ {
				t.Errorf("job progress %+v differs from reference %+v", v, ref)
			}
		}()
	}
	wg.Wait()

	snap := srv.Counters().Snapshot()
	const jobs = extra + 1
	if want := ref.Events * jobs; snap.Events != want {
		t.Errorf("global Events = %d, want %d", snap.Events, want)
	}
	if want := ref.Execs * jobs; snap.Execs != want {
		t.Errorf("global Execs = %d, want %d", snap.Execs, want)
	}
	if snap.JobsStarted != jobs || snap.JobsDone != jobs || snap.JobsFailed != 0 {
		t.Errorf("job counters: %+v, want %d started/done, 0 failed", snap, jobs)
	}
	// Energy sums float deltas in scheduling order; per-policy totals are
	// identical across identical jobs, so the global total still must be
	// an exact multiple (each job contributes the same finite partials).
	if want := ref.EnergyJ * jobs; snap.EnergyJ < want*0.999999 || snap.EnergyJ > want*1.000001 {
		t.Errorf("global EnergyJ = %g, want ~%g", snap.EnergyJ, want)
	}
}

// TestClientDisconnectCancelsJob: a synchronous client that hangs up
// mid-job must cancel it, and the worker must come back to serve later
// jobs.
func TestClientDisconnectCancelsJob(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1})

	body, err := json.Marshal(JobSpec{Kind: KindFleet, Machines: 5000, DurationSec: 1800, Policies: []string{"base", "tp", "pcap", "ideal"}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the job is running, then hang up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		if j, ok := srv.job("j1"); ok {
			j.mu.Lock()
			running := j.state == StateRunning
			j.mu.Unlock()
			if running {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Error("expected the canceled request to error")
	}

	// The job must reach canceled, not run to completion.
	j, _ := srv.job("j1")
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("job did not wind down after client disconnect")
	}
	if v := j.view(); v.State != StateCanceled {
		t.Errorf("state = %q after disconnect, want %q (error %q)", v.State, StateCanceled, v.Error)
	}

	// The single worker is free again: a follow-up job completes.
	v := submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 2})
	if v.State != StateDone {
		t.Errorf("follow-up job state = %q, error = %q", v.State, v.Error)
	}
	if snap := srv.Counters().Snapshot(); snap.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1 (the canceled job)", snap.JobsFailed)
	}
}

// TestJobTimeout: a job whose own timeout elapses fails with a timeout
// error and frees its worker.
func TestJobTimeout(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	v := submitWait(t, hs.URL, JobSpec{
		Kind: KindFleet, Machines: 20000, DurationSec: 1800,
		Policies: []string{"base", "tp", "pcap", "ideal"}, TimeoutSec: 0.05,
	})
	if v.State != StateFailed || !strings.Contains(v.Error, "timeout") {
		t.Fatalf("state = %q, error = %q; want failed with timeout", v.State, v.Error)
	}
	// Worker is free for real work afterwards.
	v = submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 2})
	if v.State != StateDone {
		t.Errorf("follow-up job state = %q, error = %q", v.State, v.Error)
	}
}

// TestCancelEndpointAndSSE cancels an async job via the cancel endpoint
// while following its event stream, and checks the stream terminates
// with a canceled event.
func TestCancelEndpointAndSSE(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	v := submitAsync(t, hs.URL, JobSpec{
		Kind: KindFleet, Machines: 5000, DurationSec: 1800,
		Policies: []string{"base", "tp", "pcap", "ideal"},
	})

	resp, err := http.Get(hs.URL + "/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	cresp, err := http.Post(hs.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()

	stream, err := io.ReadAll(resp.Body) // returns once the job terminates
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), "event: canceled") {
		t.Errorf("SSE stream missing terminal canceled event:\n%s", stream)
	}
	final := getJob(t, hs.URL, v.ID)
	if final.State != StateCanceled {
		t.Errorf("state = %q, want canceled (error %q)", final.State, final.Error)
	}
}

// TestQueueBoundsAndValidation: bad specs are rejected up front, and a
// full queue answers 503 without accepting the job.
func TestQueueBoundsAndValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	for _, spec := range []JobSpec{
		{Kind: "nope"},
		{Kind: KindEval},                 // missing app
		{Kind: KindEval, App: "mystery"}, // unknown app
		{Kind: KindReplay},               // missing trace
		{Kind: KindFleet},                // missing machines
		{Kind: KindEval, App: "nedit", Execs: -1},
		// Predicate fields that trace.PC, trace.PID or trace.Time would
		// truncate or overflow.
		{Kind: KindReplay, Trace: "t", PCFrom: 1<<32 + 5},
		{Kind: KindReplay, Trace: "t", PCTo: 1 << 40},
		{Kind: KindReplay, Trace: "t", Pid: 1<<31 + 7},
		{Kind: KindReplay, Trace: "t", FromSec: 1e300},
		{Kind: KindReplay, Trace: "t", ToSec: 1e13},
		// Fields the spec's kind never reads.
		{Kind: KindReplay, Trace: "t", Scale: 2},
		{Kind: KindFleet, Machines: 4, Scale: 2},
		{Kind: KindFleet, Machines: 4, Execs: 3},
		{Kind: KindFleet, Machines: 4, App: "nedit"},
		{Kind: KindFleet, Machines: 4, FromSec: 1}, // a predicate without a trace
		{Kind: KindEval, App: "nedit", Mix: "nedit:1"},
		{Kind: KindEval, App: "nedit", Machines: 4},
		{Kind: KindEval, App: "nedit", Pid: 3},
		{Kind: KindEval, App: "nedit", PCTo: 4096},
		{Kind: KindEval, App: "nedit", Workers: 2},
		{Kind: KindEval, App: "nedit", Trace: "t"},
		{Kind: KindReplay, Trace: "t", DurationSec: 60},
		{Kind: KindFleet, Machines: 4, Trace: "t", Mix: "nedit:1"},
		// Fleet size and session length beyond their bounds.
		{Kind: KindFleet, Machines: experiments.MaxFleetMachines + 1},
		{Kind: KindFleet, Machines: 1, DurationSec: experiments.MaxFleetDurationSec + 1},
		// A policy listed twice: each name is one cell of the run's pass.
		{Kind: KindFleet, Machines: experiments.MaxFleetMachines, Policies: []string{"pcap", "pcap"}},
		{Kind: KindEval, App: "nedit", Policies: []string{"base", "BASE"}},
	} {
		body, _ := json.Marshal(spec)
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: status %d, want 400", spec, resp.StatusCode)
		}
	}

	// Saturate: one long job occupies the worker, one sits in the queue;
	// the next submission must bounce with 503.
	long := JobSpec{Kind: KindFleet, Machines: 5000, DurationSec: 1800, Policies: []string{"base", "tp", "pcap", "ideal"}}
	running := submitAsync(t, hs.URL, long)
	queued := submitAsync(t, hs.URL, long)
	body, _ := json.Marshal(long)
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overflow submission: status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("overflow submission: Retry-After %q, want \"1\"", got)
	}
	for _, id := range []string{running.ID, queued.ID} {
		cresp, err := http.Post(hs.URL+"/jobs/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		cresp.Body.Close()
	}
}

// TestTraceDirEscapeRejected: path references cannot leave the trace
// directory.
func TestTraceDirEscapeRejected(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Config{Workers: 1, TraceDir: dir})
	v := submitWait(t, hs.URL, JobSpec{Kind: KindReplay, Trace: "../etc/passwd", Policies: []string{"base"}})
	if v.State != StateFailed || !strings.Contains(v.Error, "escapes") {
		t.Errorf("state = %q, error = %q; want failed escape error", v.State, v.Error)
	}
}

// repeated reads one byte value forever.
type repeated byte

func (r repeated) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// readCounter counts the bytes read through it.
type readCounter struct {
	r io.Reader
	n int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestUploadBodyCapped: a trace upload over maxTraceBytes gets 413 and
// leaves no file in the upload directory. A body that declares its
// length is refused unread, before the upload directory exists; one sent
// without a length (chunked) is copied up to the cap and its file
// removed. The next upload is stored.
func TestUploadBodyCapped(t *testing.T) {
	t.Run("declared", func(t *testing.T) {
		checkGoroutines(t)
		srv, err := New(Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := srv.Shutdown(context.Background()); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		})
		body := &readCounter{r: repeated(0)}
		req := httptest.NewRequest(http.MethodPost, "/traces", body)
		req.ContentLength = maxTraceBytes + 1
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized upload: status %d, want 413", rec.Code)
		}
		if body.n != 0 {
			t.Errorf("the server read %d bytes of a body declared over the cap", body.n)
		}
		srv.mu.Lock()
		dir := srv.upDir
		srv.mu.Unlock()
		if dir != "" {
			t.Errorf("an upload directory %s was created for a refused upload", dir)
		}
	})
	t.Run("chunked", func(t *testing.T) {
		srv, hs := newTestServer(t, Config{Workers: 1})
		resp, err := http.Post(hs.URL+"/traces", "application/octet-stream", io.LimitReader(repeated(0), maxTraceBytes+1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized upload: status %d, want 413", resp.StatusCode)
		}
		dir, err := srv.uploadDir()
		if err != nil {
			t.Fatal(err)
		}
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Errorf("upload directory after a rejected upload: %v, %v; want empty", files, err)
		}
		resp, err = http.Post(hs.URL+"/traces", "application/octet-stream", strings.NewReader("small"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Errorf("upload after a rejected one: status %d, want 201", resp.StatusCode)
		}
	})
}

// TestJobSpecBodyCapped: a job spec over maxJobSpecBytes gets 413, not
// 400, and queues nothing.
func TestJobSpecBodyCapped(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1})
	body := io.MultiReader(strings.NewReader(`{"kind":"`),
		io.LimitReader(repeated('a'), maxJobSpecBytes), strings.NewReader(`"}`))
	resp, err := http.Post(hs.URL+"/jobs", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized job spec: status %d, want 413", resp.StatusCode)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.jobs) != 0 {
		t.Errorf("%d jobs registered from an oversized spec", len(srv.jobs))
	}
}

// TestGracefulShutdown: Shutdown rejects new work, finishes the backlog,
// and leaves no workers behind. A draining server's 503 invites no
// retry.
func TestGracefulShutdown(t *testing.T) {
	checkGoroutines(t)
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	v := submitAsync(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 2})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The queued job ran to completion during the drain.
	j, ok := srv.job(v.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if got := j.view(); got.State != StateDone {
		t.Errorf("drained job state = %q, error = %q", got.State, got.Error)
	}

	// New submissions bounce.
	body, _ := json.Marshal(JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}})
	resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown submission: status %d, want 503", resp.StatusCode)
	}
	if got, ok := resp.Header["Retry-After"]; ok {
		t.Errorf("post-shutdown submission: Retry-After %q, want none", got)
	}
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("second Shutdown should report an error")
	}
}

// TestStatsEndpoint sanity-checks the /stats payload.
func TestStatsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 3})
	submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 2})
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sv statsView
	if err := json.NewDecoder(resp.Body).Decode(&sv); err != nil {
		t.Fatal(err)
	}
	if sv.Workers != 3 || sv.JobsDone != 1 || sv.Events == 0 {
		t.Errorf("stats view: %+v", sv)
	}
}

// TestStatsCountsWaitedJobs: a client that waited for its job with
// ?wait=1 and then reads /stats must find the job counted — done, and
// its events and executions committed — every time, not eventually.
func TestStatsCountsWaitedJobs(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	spec := JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 1}
	var events, execs int64
	for i := int64(1); i <= 200; i++ {
		v := submitWait(t, hs.URL, spec)
		events += v.Events
		execs += v.Execs
		resp, err := http.Get(hs.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var sv statsView
		err = json.NewDecoder(resp.Body).Decode(&sv)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if sv.JobsDone != i || sv.Events != events || sv.Execs != execs {
			t.Fatalf("after job %d: /stats reports %d done, %d events, %d execs; want %d, %d, %d",
				i, sv.JobsDone, sv.Events, sv.Execs, i, events, execs)
		}
	}
}

// sourceCounts returns the events and executions of the first execs
// executions of app's default-seed workload: what one policy's pass over
// an eval job's source reads.
func sourceCounts(t *testing.T, app string, execs int) (events, n int64) {
	t.Helper()
	a, _ := workload.ByName(app)
	suite, err := experiments.NewSuite(experiments.DefaultSeed, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := trace.LimitExecs(suite.SourceFor(a), execs)
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		events += int64(len(src.ExecEvents()))
		n++
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	return events, n
}

// TestMeterCountsEveryPolicy: an eval or replay job reads each execution
// once for all its policies, yet /stats and the job's view count its
// events and executions once per policy — with the policies listed or
// left to the default list. A fleet job counts every machine of every
// policy's fleet. Whatever the kind, /stats moves by exactly the job's
// view.
func TestMeterCountsEveryPolicy(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newTestServer(t, Config{Workers: 2, TraceDir: dir})
	writeTraceFile(t, dir)
	events, execs := sourceCounts(t, "nedit", 3)
	allEvents, allExecs := sourceCounts(t, "nedit", math.MaxInt)
	four := []string{"base", "tp", "pcap", "ideal"}
	for _, tc := range []struct {
		name     string
		spec     JobSpec
		policies int64
		// Per policy. A fleet's events and executions are not known in
		// advance (0); they must still be positive.
		events, execs, machines int64
	}{
		{"eval four", JobSpec{Kind: KindEval, App: "nedit", Execs: 3, Policies: four}, 4, events, execs, 0},
		{"eval default", JobSpec{Kind: KindEval, App: "nedit", Execs: 3}, 4, events, execs, 0},
		{"replay default", JobSpec{Kind: KindReplay, Trace: "nedit.pct2"}, 4, allEvents, allExecs, 0},
		{"fleet three", JobSpec{Kind: KindFleet, Machines: 24, DurationSec: 120, Policies: evalPolicies}, 3, 0, 0, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := srv.Counters().Snapshot()
			v := submitWait(t, hs.URL, tc.spec)
			if v.State != StateDone {
				t.Fatalf("state = %q, error = %q", v.State, v.Error)
			}
			after := srv.Counters().Snapshot()
			if after.Events-before.Events != v.Events || after.Execs-before.Execs != v.Execs ||
				after.Machines-before.Machines != v.Machines {
				t.Errorf("/stats moved by %d events, %d execs, %d machines; the view reports %d, %d, %d",
					after.Events-before.Events, after.Execs-before.Execs, after.Machines-before.Machines,
					v.Events, v.Execs, v.Machines)
			}
			if v.Events <= 0 || v.Execs <= 0 {
				t.Errorf("view reports %d events, %d execs; want some", v.Events, v.Execs)
			}
			if tc.events != 0 && (v.Events != tc.policies*tc.events || v.Execs != tc.policies*tc.execs) {
				t.Errorf("view reports %d events, %d execs; want %d × (%d, %d)", v.Events, v.Execs, tc.policies, tc.events, tc.execs)
			}
			if want := tc.policies * tc.machines; v.Machines != want {
				t.Errorf("view reports %d machines, want %d", v.Machines, want)
			}
			if v.PoliciesDone != tc.policies {
				t.Errorf("policies_done = %d, want %d", v.PoliciesDone, tc.policies)
			}
		})
	}
}

// TestCancelReplayMidPass cancels a four-policy replay while its one pass
// is under way, decoding sequentially and in parallel batches: the job
// ends canceled with the context's error and no output, the single
// worker serves the next job, and the server's goroutine-leak check
// passes, so no decode goroutine outlives the canceled job.
func TestCancelReplayMidPass(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			srv, hs := newTestServer(t, Config{Workers: 1, TraceDir: dir})
			writeAppTraceFile(t, dir, "mplayer", 2)
			v := submitAsync(t, hs.URL, JobSpec{Kind: KindReplay, Trace: "mplayer.pct2",
				Policies: []string{"base", "tp", "pcap", "ideal"}, Workers: workers})
			j, ok := srv.job(v.ID)
			if !ok {
				t.Fatalf("no job %s", v.ID)
			}
			// The meter has handed the pass its first execution: cancel now.
			for j.work.execs.Load() == 0 {
				select {
				case <-j.Done():
					t.Fatalf("job ended before its pass started: %+v", j.view())
				case <-time.After(time.Millisecond):
				}
			}
			cresp, err := http.Post(hs.URL+"/jobs/"+v.ID+"/cancel", "", nil)
			if err != nil {
				t.Fatal(err)
			}
			cresp.Body.Close()
			select {
			case <-j.Done():
			case <-time.After(30 * time.Second):
				t.Fatal("job did not wind down after cancel")
			}
			final := j.view()
			if final.State != StateCanceled || !strings.Contains(final.Error, context.Canceled.Error()) {
				t.Errorf("state = %q, error = %q; want canceled with a context error", final.State, final.Error)
			}
			if final.Output != "" {
				t.Errorf("canceled job has output:\n%s", final.Output)
			}
			// Four policies × two copies of mplayer's 31 executions.
			if total := int64(4 * 2 * 31); final.Execs >= total {
				t.Errorf("the pass metered all %d executions before the cancel landed", total)
			}
			if final.PoliciesDone != 0 {
				t.Errorf("policies_done = %d after a canceled pass, want 0", final.PoliciesDone)
			}
			next := submitWait(t, hs.URL, JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 2})
			if next.State != StateDone {
				t.Errorf("follow-up job state = %q, error = %q", next.State, next.Error)
			}
		})
	}
}

// TestSuiteRegistry: every request for one (seed, scale) gets the same
// shared suite, scales below 1 share scale 1's, and the registry never
// holds more than maxSuites.
func TestSuiteRegistry(t *testing.T) {
	var sr suiteRegistry
	a, err := sr.get(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := sr.get(1, 1); b != a {
		t.Error("scale 0 and scale 1 got different suites")
	}
	if c, _ := sr.get(2, 1); c == a {
		t.Error("two seeds share a suite")
	}
	for seed := uint64(1); seed <= 3*maxSuites; seed++ {
		if _, err := sr.get(seed, 2); err != nil {
			t.Fatal(err)
		}
		if len(sr.suites) > maxSuites {
			t.Fatalf("registry holds %d suites, cap %d", len(sr.suites), maxSuites)
		}
	}
}

// TestFinishedJobsBounded: the server keeps at most maxFinishedJobs
// retired jobs. Once more have finished, the oldest answer 404 on GET,
// cancel and SSE, and every newer one is still found.
func TestFinishedJobsBounded(t *testing.T) {
	srv, hs := newTestServer(t, Config{Workers: 1})
	spec := &JobSpec{Kind: KindEval, App: "nedit", Policies: []string{"base"}, Execs: 1}
	const evicted = 10
	ids := make([]string, maxFinishedJobs+evicted)
	// One worker retires jobs in submission order; batches keep the
	// queue under its depth.
	for i := 0; i < len(ids); {
		var batch []*Job
		for ; i < len(ids) && len(batch) < 32; i++ {
			job, err := srv.enqueue(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = job.ID
			batch = append(batch, job)
		}
		for _, job := range batch {
			<-job.Done()
		}
	}
	for i, id := range ids {
		if _, ok := srv.job(id); ok != (i >= evicted) {
			t.Fatalf("job %d (%s): found = %v, want %v", i, id, ok, i >= evicted)
		}
	}
	for _, req := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/jobs/" + ids[0], http.StatusNotFound},
		{http.MethodPost, "/jobs/" + ids[evicted-1] + "/cancel", http.StatusNotFound},
		{http.MethodGet, "/jobs/" + ids[evicted-1] + "/events", http.StatusNotFound},
		{http.MethodGet, "/jobs/" + ids[evicted], http.StatusOK},
	} {
		r, err := http.NewRequest(req.method, hs.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != req.want {
			t.Errorf("%s %s: status %d, want %d", req.method, req.path, resp.StatusCode, req.want)
		}
	}
	// A job canceled while queued is retired without running, and
	// pushes the oldest kept job out like any other.
	queued := newJob("queued", spec)
	queued.Cancel("test")
	srv.runJob(queued)
	if _, ok := srv.job(ids[evicted]); ok {
		t.Errorf("job %s still kept after a canceled queued job retired", ids[evicted])
	}
}

// TestReplaySeedsShareOneSuite: replay jobs at any number of distinct
// seeds share the default seed's suite, so they cannot crowd an eval
// suite out of the registry: a repeat of the eval job finds its retained
// executions and prepares nothing new.
func TestReplaySeedsShareOneSuite(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newTestServer(t, Config{Workers: 1, TraceDir: dir})
	writeTraceFile(t, dir)
	eval := JobSpec{Kind: KindEval, App: "nedit", Seed: 7, Execs: 2, Policies: evalPolicies}
	if v := submitWait(t, hs.URL, eval); v.State != StateDone {
		t.Fatalf("eval job: state = %q, error = %q", v.State, v.Error)
	}
	suite, err := srv.suites.get(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	prepared := suite.RetainedPrepares()
	if prepared == 0 {
		t.Fatal("the eval job retained no prepared executions")
	}
	for seed := uint64(1); seed <= maxSuites+1; seed++ {
		v := submitWait(t, hs.URL, JobSpec{Kind: KindReplay, Trace: "nedit.pct2", Seed: seed, Policies: []string{"base"}})
		if v.State != StateDone {
			t.Fatalf("replay at seed %d: state = %q, error = %q", seed, v.State, v.Error)
		}
	}
	srv.suites.mu.Lock()
	kept := srv.suites.suites[suiteKey{seed: 7, scale: 1}]
	srv.suites.mu.Unlock()
	if kept != suite {
		t.Fatal("replay jobs dropped the eval job's suite from the registry")
	}
	if v := submitWait(t, hs.URL, eval); v.State != StateDone {
		t.Fatalf("repeat eval job: state = %q, error = %q", v.State, v.Error)
	}
	if got := suite.RetainedPrepares(); got != prepared {
		t.Errorf("repeat eval job prepared %d executions, want 0", got-prepared)
	}
}
