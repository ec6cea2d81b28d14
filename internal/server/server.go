// Package server is pcapd's HTTP daemon: simulation as a service.
//
// The daemon accepts policy-evaluation, trace-replay and fleet jobs as
// JSON, runs them on a bounded pool of workers over shared experiment
// suites, and returns the exact same rendered reports the pcapsim CLI
// prints — byte for byte, at any worker count. Three design rules keep it
// honest:
//
//   - Determinism across the network boundary. A job's spec is an
//     experiments.RunSpec, the run description pcapsim's -replay and
//     -fleet modes build from their flags, and a job's Output is that
//     spec's RunSpec.Run, the call pcapsim makes. The daemon lends Run
//     only its shared suites, its trace references and its accounting,
//     none of which changes a result, so a server response is
//     byte-identical to the equivalent local run. The differential tests
//     and ci.sh's pcapd smoke pin this. An eval or replay job is one
//     ReplayRows pass.
//
//   - One shared suite per seed. A server-wide registry holds one
//     experiment suite per (seed, scale), at most eight, shared by every
//     worker. Each suite retains the prepared execution of every pinned
//     trace it replays (Suite.RetainPrepared), so jobs against the same
//     seed reuse generated and cache-filtered workloads instead of
//     redoing that work per request. Replay jobs read no workload, so
//     they all share the default seed's suite whatever seed they carry.
//
//   - Live counters at run boundaries. A run reports its progress per
//     execution and per policy, never per event, and each report is one
//     atomic add to the job's view and one to the server's /stats
//     counters (Counters), before the job finishes: a client that waited
//     for its job finds it counted. Events and executions count once per
//     policy, as in a solo run.
//
// Cancellation is cooperative and complete: every job runs under a
// context bounded by its own timeout, a cancel endpoint, and — for
// synchronous requests — the client connection, and RunSpec.Run threads
// that context through the simulation itself (checked between
// executions for eval and replay, through fleet.Config.Interrupt for
// fleets), so a disconnected client frees its worker promptly.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pcapsim/internal/experiments"
	"pcapsim/internal/sim"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is the job worker pool size; 0 defaults to GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of queued (not yet running) jobs;
	// submissions beyond it are rejected with 503. 0 defaults to 64.
	QueueDepth int
	// DefaultTimeout bounds jobs whose spec carries no timeout_sec;
	// 0 defaults to 5 minutes.
	DefaultTimeout time.Duration
	// TraceDir is the root for trace path references in job specs.
	// Empty means path references are rejected (uploads still work).
	TraceDir string
}

// Server is the pcapd daemon: an http.Handler plus the worker pool
// behind it. Construct with New, serve via Handler, stop via Shutdown.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	queue    chan *Job
	suites   suiteRegistry
	counters Counters

	// baseCtx parents every job context; cancel it to abort running jobs.
	baseCtx   context.Context
	cancelAll context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	finished []string // IDs of retired jobs still in jobs, oldest first
	jobSeq   int
	uploads  map[string]string // upload ID -> stored file path
	upSeq    int
	upDir    string // lazily created upload directory
	draining bool

	wg sync.WaitGroup // running workers
}

// New validates cfg, starts the worker pool, and returns the server.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Minute
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		queue:     make(chan *Job, cfg.QueueDepth),
		baseCtx:   ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
		uploads:   make(map[string]string),
	}
	s.routes()
	for w := 0; w < cfg.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Config returns the server's configuration after defaulting.
func (s *Server) Config() Config { return s.cfg }

// Counters exposes the live counters (tests, /stats).
func (s *Server) Counters() *Counters { return &s.counters }

// worker is one pool goroutine: it drains the job queue until the queue
// closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// runJob executes one job. Its work and completion are counted, and the
// job retired, before finish wakes the job's waiters, so a client that
// waited for the job sees it in /stats.
func (s *Server) runJob(job *Job) {
	if !job.start() {
		s.retire(job) // canceled while queued
		return
	}
	s.counters.jobsStarted.Add(1)

	timeout := s.cfg.DefaultTimeout
	if job.Spec.TimeoutSec > 0 {
		timeout = time.Duration(job.Spec.TimeoutSec * float64(time.Second))
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, timeout)
	job.bindCancel(cancel)
	out, err := s.execute(ctx, job)
	cancel()

	state, msg := StateDone, ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, out, msg = StateCanceled, "", "canceled: "+err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		state, out, msg = StateFailed, "", fmt.Sprintf("timeout after %s: %v", timeout, err)
	default:
		state, out, msg = StateFailed, "", err.Error()
	}
	s.counters.jobDone(err != nil)
	s.retire(job)
	job.finish(state, out, msg)
}

// maxFinishedJobs bounds how many retired jobs the server keeps for
// GET, cancel and SSE requests, about 1 KB each; queued and running jobs
// are always kept.
const maxFinishedJobs = 4096

// retire records a job the worker is done with, forgetting the oldest
// retired job once more than maxFinishedJobs are kept.
func (s *Server) retire(job *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.ID)
	if len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// suiteKey identifies a shared experiment suite. Scale is part of the
// key because a Suite memoizes results per scale.
type suiteKey struct {
	seed  uint64
	scale int
}

// maxSuites bounds the registry so the server cannot accumulate one
// workload cache per distinct seed ever seen.
const maxSuites = 8

// suiteRegistry holds the server's shared experiment suites, one per
// (seed, scale), each retaining its prepared executions
// (Suite.RetainPrepared). Every worker reads the same suites, so a
// trace is generated, pinned and cache-filtered once for the whole
// server, not once per worker. A Suite is safe for concurrent use.
type suiteRegistry struct {
	mu     sync.Mutex
	suites map[suiteKey]*experiments.Suite
}

// get returns the shared suite for (seed, scale), building it on first
// use. A full registry is emptied first; jobs running on a dropped suite
// keep their reference and finish on it.
func (sr *suiteRegistry) get(seed uint64, scale int) (*experiments.Suite, error) {
	if scale < 1 {
		scale = 1
	}
	key := suiteKey{seed: seed, scale: scale}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if st, ok := sr.suites[key]; ok {
		return st, nil
	}
	st, err := experiments.NewSuite(seed, sim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	st.SetScale(scale)
	st.RetainPrepared()
	if sr.suites == nil || len(sr.suites) >= maxSuites {
		sr.suites = make(map[suiteKey]*experiments.Suite)
	}
	sr.suites[key] = st
	return st, nil
}

// routes installs the HTTP surface.
func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /traces", s.handleUpload)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// Request body caps. A body over its cap gets 413 and leaves nothing
// behind.
const (
	// maxJobSpecBytes caps a POST /jobs body. A job spec is a JSON
	// document of a few hundred bytes.
	maxJobSpecBytes = 1 << 20
	// maxTraceBytes caps a POST /traces body. Every execution of the six
	// applications at the default seed encodes to 5.3 MB of v2 trace, so
	// the cap leaves room for far larger recordings while a runaway or
	// hostile client cannot fill the upload directory's disk.
	maxTraceBytes = 256 << 20
)

// bodyError answers a request whose body failed to read or decode: 413
// for a body past its cap, else status.
func bodyError(w http.ResponseWriter, status int, err error) {
	if errors.As(err, new(*http.MaxBytesError)) {
		status = http.StatusRequestEntityTooLarge
	}
	httpError(w, status, err.Error())
}

// handleSubmit accepts a job spec. With ?wait=1 the response is written
// only when the job finishes (and a client disconnect cancels it);
// otherwise the job is accepted with 202 and polled via /jobs/{id}.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeJobSpec(http.MaxBytesReader(w, r.Body, maxJobSpecBytes))
	if err != nil {
		bodyError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.enqueue(spec)
	if err != nil {
		if errors.Is(err, errQueueFull) {
			// Overload is transient, unlike draining: invite a retry.
			w.Header().Set("Retry-After", "1")
		}
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	if r.URL.Query().Get("wait") != "1" {
		writeJSON(w, http.StatusAccepted, job.view())
		return
	}
	// Synchronous mode: the job lives and dies with this request — a
	// client that hangs up takes its job (and the worker slot it holds)
	// down with it.
	stop := context.AfterFunc(r.Context(), func() {
		job.Cancel("client disconnected")
	})
	defer stop()
	<-job.Done()
	writeJSON(w, http.StatusOK, job.view())
}

// errQueueFull rejects a submission that finds the bounded queue full.
var errQueueFull = errors.New("job queue full")

// enqueue registers a job and places it on the bounded queue. A full
// queue fails with errQueueFull.
func (s *Server) enqueue(spec *JobSpec) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errors.New("server is shutting down")
	}
	s.jobSeq++
	job := newJob(fmt.Sprintf("j%d", s.jobSeq), spec)
	select {
	case s.queue <- job:
	default:
		s.jobSeq--
		return nil, fmt.Errorf("%w (%d queued)", errQueueFull, cap(s.queue))
	}
	s.jobs[job.ID] = job
	return job, nil
}

// job looks up a registered job.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, job.view())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	job.Cancel("canceled by request")
	writeJSON(w, http.StatusOK, job.view())
}

// handleUpload stores a raw trace file (any on-disk format) and returns
// its reference ID for job specs. A body that declares a length over
// maxTraceBytes is refused unread; one sent without a length is copied
// up to the cap.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.ContentLength > maxTraceBytes {
		httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("trace upload over %d bytes", maxTraceBytes))
		return
	}
	dir, err := s.uploadDir()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	f, err := os.CreateTemp(dir, "trace-*")
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	_, cpErr := io.Copy(f, http.MaxBytesReader(w, r.Body, maxTraceBytes))
	clErr := f.Close()
	if cpErr == nil {
		cpErr = clErr
	}
	if cpErr != nil {
		_ = os.Remove(f.Name()) //pcaplint:ignore errcheck-lite best-effort cleanup of a failed upload; the copy error below is authoritative
		bodyError(w, http.StatusInternalServerError, fmt.Errorf("storing trace: %w", cpErr))
		return
	}
	s.mu.Lock()
	s.upSeq++
	id := "t" + strconv.Itoa(s.upSeq)
	s.uploads[id] = f.Name()
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// uploadDir lazily creates the server's upload directory.
func (s *Server) uploadDir() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.upDir != "" {
		return s.upDir, nil
	}
	dir, err := os.MkdirTemp("", "pcapd-uploads-")
	if err != nil {
		return "", fmt.Errorf("creating upload dir: %w", err)
	}
	s.upDir = dir
	return dir, nil
}

// resolveTrace maps a job spec's trace reference to an on-disk path:
// upload IDs first, then paths inside Config.TraceDir. Path references
// must stay inside the trace directory.
func (s *Server) resolveTrace(ref string) (string, error) {
	s.mu.Lock()
	path, ok := s.uploads[ref]
	s.mu.Unlock()
	if ok {
		return path, nil
	}
	if s.cfg.TraceDir == "" {
		return "", fmt.Errorf("unknown trace reference %q (no upload by that ID, and the server has no trace directory)", ref)
	}
	if !filepath.IsLocal(ref) {
		return "", fmt.Errorf("trace reference %q escapes the trace directory", ref)
	}
	return filepath.Join(s.cfg.TraceDir, ref), nil
}

// statsView is the /stats response: the live counter snapshot plus the
// pool's occupancy.
type statsView struct {
	Snapshot
	Workers int `json:"workers"`
	Queued  int `json:"queued"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsView{
		Snapshot: s.counters.Snapshot(),
		Workers:  s.cfg.Workers,
		Queued:   len(s.queue),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, "ok\n") //pcaplint:ignore errcheck-lite health probe response; a failed write only matters to the prober
}

// Shutdown drains the server: new submissions are rejected immediately,
// queued and running jobs are given until ctx expires to finish, then
// running jobs are canceled and the pool is awaited. After Shutdown
// returns, no worker goroutine remains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // workers exit once the backlog drains
	}
	s.mu.Unlock()
	if already {
		return errors.New("server: Shutdown called twice")
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Grace expired: cancel every running job and wait for the pool
		// to notice.
		s.cancelAll()
		<-done
		err = ctx.Err()
	}
	s.removeUploads()
	return err
}

// removeUploads deletes the upload directory, if one was created.
func (s *Server) removeUploads() {
	s.mu.Lock()
	dir := s.upDir
	s.upDir = ""
	s.mu.Unlock()
	if dir != "" {
		_ = os.RemoveAll(dir) //pcaplint:ignore errcheck-lite best-effort cleanup of temp uploads at shutdown
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //pcaplint:ignore errcheck-lite response write failure means the client went away; nothing to report to
}
