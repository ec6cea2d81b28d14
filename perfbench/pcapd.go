package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/server"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// The pcapd workload is a closed loop: one client per CPU, each waiting
// for its reply (POST /jobs?wait=1, like a script), against a pcapd
// process on loopback with one worker per CPU. Each client walks a
// schedule generated from the workload seed over a fixed set of short
// jobs:
//
//   - eval jobs over all six apps at two job seeds, capped at a few
//     executions, under either pcap alone or base,tp,pcap,ideal;
//   - replay jobs over a v2 file the benchmark encodes and uploads during
//     set-up, decoded sequentially (workers 0) and in parallel.
//
// The job set is the same at every workload seed, so latency compares
// like with like across seeds (the length of a workload's first
// executions varies by a tenth from one seed to another); the seed
// draws each client's job order. Two job seeds keep every workload
// inside the server's memoized-suite pool, so trace generation is a
// set-up cost; the short jobs make HTTP, JSON, the queue and the worker
// pool the layers that matter, and the replay jobs put v2 decode on the
// path. Single-policy jobs bypass any sharing between policies;
// four-policy jobs exercise it.

const (
	// evalExecs caps every eval job at the workload's first executions.
	evalExecs = 2
	// replayWeight is how many times each replay job appears per pass
	// of a client's schedule, against once for each eval job.
	replayWeight = 2
)

// replayApps are the applications whose first execution makes up the
// uploaded replay file.
var replayApps = []string{"mozilla", "xemacs", "nedit"}

var policyLists = [][]string{{"pcap"}, {"base", "tp", "pcap", "ideal"}}

// pcapdJob is one distinct job of the schedule with its expected result.
type pcapdJob struct {
	spec   server.JobSpec
	want   string // expected Output; for replays, without the header line
	events int64  // trace events the job feeds its policies
	ios    int    // pre-cache I/Os it simulates, summed over policies

	compute, render time.Duration // local compute and render (traced runs)
}

// jobSeeds are the workload seeds of the eval jobs; the replay file is
// generated at the first.
var jobSeeds = []uint64{defaultSeed, defaultSeed + 1}

// pcapdJobs returns the distinct jobs, in a fixed order. upload is the
// replay file's reference on the server.
func pcapdJobs(upload string) []*pcapdJob {
	var jobs []*pcapdJob
	for _, s := range jobSeeds {
		for _, app := range workload.Names() {
			for _, pols := range policyLists {
				jobs = append(jobs, &pcapdJob{spec: server.JobSpec{
					Kind: server.KindEval, Seed: s, App: app, Execs: evalExecs, Policies: pols,
				}})
			}
		}
	}
	for _, workers := range []int{0, runtime.NumCPU()} {
		for _, pols := range policyLists {
			jobs = append(jobs, &pcapdJob{spec: server.JobSpec{
				Kind: server.KindReplay, Seed: jobSeeds[0], Trace: upload, Workers: workers, Policies: pols,
			}})
		}
	}
	return jobs
}

// schedule is client c's job sequence, pass after pass: every eval job
// once and every replay job replayWeight times per pass, in an order
// drawn from (workload seed, c). Each pass draws a fresh order from the
// same generator, so the sequence is a pure function of the seed.
type schedule struct {
	jobs []*pcapdJob
	rng  *rand.Rand
	pass []int
}

func newSchedule(jobs []*pcapdJob, seed uint64, client int) *schedule {
	return &schedule{jobs: jobs, rng: rand.New(rand.NewPCG(seed, uint64(client)))}
}

// next returns the index of the next job.
func (s *schedule) next() int {
	if len(s.pass) == 0 {
		for i, j := range s.jobs {
			n := 1
			if j.spec.Kind == server.KindReplay {
				n = replayWeight
			}
			for range n {
				s.pass = append(s.pass, i)
			}
		}
		s.rng.Shuffle(len(s.pass), func(a, b int) { s.pass[a], s.pass[b] = s.pass[b], s.pass[a] })
	}
	i := s.pass[0]
	s.pass = s.pass[1:]
	return i
}

// replayTraces generates the replay file's executions.
func replayTraces() []*trace.Trace {
	var out []*trace.Trace
	for _, name := range replayApps {
		app, _ := workload.ByName(name)
		out = append(out, app.Trace(jobSeeds[0], 0))
	}
	return out
}

// localSuites builds one suite per job seed, as the server's job
// contexts do.
type localSuites map[uint64]*experiments.Suite

func (ls localSuites) get(seed uint64) (*experiments.Suite, error) {
	if s, ok := ls[seed]; ok {
		return s, nil
	}
	s, err := experiments.NewSuite(seed, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ls[seed] = s
	return s, nil
}

// expect computes a job's expected output locally through the same
// library calls pcapd makes, and returns the time the simulation and the
// render took.
func (j *pcapdJob) expect(suites localSuites, replayPath string) (compute, render time.Duration, err error) {
	spec := &j.spec
	st, err := suites.get(spec.Seed)
	if err != nil {
		return 0, 0, err
	}
	open := func() (trace.Source, func(), error) {
		if spec.Kind == server.KindEval {
			app, ok := workload.ByName(spec.App)
			if !ok {
				return nil, nil, fmt.Errorf("unknown app %q", spec.App)
			}
			return trace.LimitExecs(st.SourceFor(app), spec.Execs), func() {}, nil
		}
		fs, err := trace.OpenTraceFileOpts(replayPath, trace.OpenOptions{Workers: spec.Workers})
		if err != nil {
			return nil, nil, err
		}
		return fs, func() { fs.Close() }, nil
	}
	src, done, err := open()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	rows, err := st.ReplayRows(src, spec.Policies)
	compute = time.Since(start)
	done()
	if err != nil {
		return 0, 0, err
	}
	start = time.Now()
	j.want = experiments.RenderReplayRows(rows)
	render = time.Since(start)
	if spec.Kind == server.KindEval {
		j.want = fmt.Sprintf("eval %s\n\n%s", spec.App, j.want)
	} else {
		j.want = "\n" + j.want
	}

	// Events the server's meter counts: every event of every execution,
	// once per policy.
	src, done, err = open()
	if err != nil {
		return 0, 0, err
	}
	defer done()
	events, err := drain(src)
	if err != nil {
		return 0, 0, err
	}
	j.events = int64(events) * int64(len(spec.Policies))
	j.ios = 0
	for _, r := range rows {
		j.ios += r.Result.TotalIOs
	}
	return compute, render, nil
}

// check compares a response's output with the expected one. A replay's
// header line names the server's copy of the upload, so it is replaced.
func (j *pcapdJob) check(out string) error {
	if j.spec.Kind == server.KindReplay {
		head, rest, ok := strings.Cut(out, "\n")
		if !ok || !strings.HasPrefix(head, "replay ") {
			return fmt.Errorf("replay job: output has no header line")
		}
		out = rest
	}
	if out != j.want {
		return fmt.Errorf("%s job %s/%v/%d: output differs from the local computation", j.spec.Kind, j.spec.App, j.spec.Policies, j.spec.Workers)
	}
	return nil
}

// pcapdProc is a running pcapd process.
type pcapdProc struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the process has been reaped
}

// startPcapd boots pcapd on a free loopback port with workers workers
// and waits until it has bound its address.
func startPcapd(bin, dir string, workers int) (*pcapdProc, error) {
	if bin == "" {
		return nil, errors.New("the pcapd workload needs -pcapd")
	}
	addrFile := filepath.Join(dir, "pcapd.addr")
	if err := os.Remove(addrFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(dir, "pcapd.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addrfile", addrFile, "-workers", strconv.Itoa(workers))
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp) // uploads stay inside dir
	cmd.Stdout, cmd.Stderr = logFile, logFile
	// If the benchmark dies without stopping it, the kernel kills pcapd.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &pcapdProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(p.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.base = "http://" + strings.TrimSpace(string(b))
			return p, nil
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, errors.New("pcapd did not bind an address within 20 s")
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("pcapd exited during start-up; see %s", logFile.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop drains pcapd with SIGTERM (killing it if the drain hangs), waits
// for it to exit, and returns its peak resident set in MB.
func (p *pcapdProc) stop() float64 {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below either way
		select {
		case <-p.exited:
		case <-time.After(30 * time.Second):
			_ = p.cmd.Process.Kill() // the drain hung; nothing left to lose
			<-p.exited
		}
	}
	return childPeakRSSMB(p.cmd.ProcessState)
}

// client is one closed-loop HTTP client of pcapd.
type client struct {
	http *http.Client
	base string
}

// jobView is the part of pcapd's job response the benchmark reads.
type jobView struct {
	State  string `json:"state"`
	Output string `json:"output"`
	Error  string `json:"error"`
}

// submit runs one job synchronously and returns its view, the response
// size and the round trip time.
func (c *client) submit(spec *server.JobSpec, tr *tracer, op int) (jobView, int, time.Duration, error) {
	var v jobView
	body, err := json.Marshal(spec)
	if err != nil {
		return v, 0, 0, err
	}
	start := time.Now()
	sp := tr.begin(spanOp, 0, op)
	defer tr.end(sp)
	rt := tr.begin("server.roundtrip", sp, op)
	resp, err := c.http.Post(c.base+"/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return v, 0, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(start)
	tr.end(rt)
	if err != nil {
		return v, 0, d, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, len(b), d, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	dec := tr.begin("server.response", sp, op)
	err = json.Unmarshal(b, &v)
	tr.end(dec)
	if err == nil && v.State != server.StateDone {
		err = fmt.Errorf("job ended %s: %s", v.State, v.Error)
	}
	return v, len(b), time.Since(start), err
}

// upload stores the replay file on the server and returns its reference.
func (c *client) upload(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	resp, err := c.http.Post(c.base+"/traces", "application/octet-stream", f)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("POST /traces: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	return out.ID, nil
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	JobsDone int64 `json:"jobs_done"`
	Events   int64 `json:"events"`
	Queued   int   `json:"queued"`
}

func (c *client) stats() (serverStats, error) {
	var st serverStats
	resp, err := c.http.Get(c.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// settledStats waits until the server reports jobs finished jobs and its
// event counter has stopped moving (a job's counters are committed just
// after its response), then returns the snapshot.
func (c *client) settledStats(jobs int64) (serverStats, error) {
	deadline := time.Now().Add(5 * time.Second)
	var prev serverStats
	for {
		st, err := c.stats()
		if err != nil {
			return st, err
		}
		if st.JobsDone >= jobs && st == prev {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("server stats did not settle: %d of %d jobs done", st.JobsDone, jobs)
		}
		prev = st
		time.Sleep(20 * time.Millisecond)
	}
}

// sample is one finished job of the measurement window.
type sample struct {
	job   int // index into the distinct jobs
	rt    time.Duration
	bytes int
	ran   bool // the job reached done, so its events were metered
	err   error
}

// drive runs the closed loop: one goroutine per schedule, each
// submitting its next job as soon as the previous reply arrives, until
// the window has passed (and at least one job each). It returns when
// every client has its last reply, with the loop's wall time.
func drive(e *env, c *client, jobs []*pcapdJob, scheds []*schedule, tr *tracer, opBase int) ([]sample, time.Duration) {
	per := make([][]sample, len(scheds))
	var wg sync.WaitGroup
	start := time.Now()
	for k, sch := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Since(start) < e.window; n++ {
				i := sch.next()
				op := opBase + k + n*len(scheds)
				v, size, rt, err := c.submit(&jobs[i].spec, tr, op)
				s := sample{job: i, rt: rt, bytes: size, ran: err == nil, err: err}
				if err == nil {
					s.err = jobs[i].check(e.output(op, v.Output))
				}
				per[k] = append(per[k], s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}
