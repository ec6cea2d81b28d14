package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pcapsim/internal/server"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

func runPcapd(e *env) (*report, error) {
	rep := newReport()
	workers := runtime.NumCPU()
	hc := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * workers},
		Timeout:   2 * time.Minute,
	}
	defer hc.CloseIdleConnections()

	// Expected outputs, computed locally before anything is timed.
	var want bytes.Buffer
	if err := trace.WriteColumnarIndexed(&want, replayTraces()...); err != nil {
		return nil, err
	}
	replayPath := filepath.Join(e.dir, "replay.pct2")
	if err := os.WriteFile(replayPath, want.Bytes(), 0o644); err != nil {
		return nil, err
	}
	jobs := pcapdJobs("")
	suites := localSuites{}
	for _, j := range jobs {
		if _, _, err := j.expect(suites, replayPath); err != nil {
			return nil, err
		}
	}

	// Set-up, repeated: boot pcapd, encode and upload the replay file,
	// and warm every job's suite with one pass of the distinct jobs per
	// client. The last server stays up for the measurement.
	var (
		setups []time.Duration
		encode []time.Duration
		proc   *pcapdProc
		c      *client
		warmed int64
	)
	defer func() {
		if proc != nil {
			proc.stop()
		}
	}()
	for range setupReps {
		if proc != nil {
			proc.stop()
			proc = nil
		}
		start := time.Now()
		p, err := startPcapd(e.pcapd, e.dir, workers)
		if err != nil {
			return nil, err
		}
		proc = p
		c = &client{http: hc, base: p.base}
		encStart := time.Now()
		var buf bytes.Buffer
		if err := trace.WriteColumnarIndexed(&buf, replayTraces()...); err != nil {
			return nil, err
		}
		upPath := filepath.Join(e.dir, "upload.pct2")
		if err := os.WriteFile(upPath, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		encode = append(encode, time.Since(encStart))
		if !bytes.Equal(buf.Bytes(), want.Bytes()) {
			rep.fail(fmt.Errorf("pcapd: re-encoding the replay file gave different bytes"))
		}
		ref, err := c.upload(upPath)
		if err != nil {
			return nil, err
		}
		for _, j := range jobs {
			if j.spec.Kind == server.KindReplay {
				j.spec.Trace = ref
			}
		}
		warmed = warmUp(c, jobs, workers, rep)
		setups = append(setups, time.Since(start))
	}
	e.logSetups(setups)

	scheds := func() []*schedule {
		s := make([]*schedule, workers)
		for k := range s {
			s[k] = newSchedule(jobs, e.seed, k)
		}
		return s
	}
	// measure runs one window and checks the server's event counter
	// against the events the finished jobs should have produced.
	done := warmed
	measure := func(tr *tracer, opBase int) ([]sample, time.Duration, int64, error) {
		before, err := c.settledStats(done)
		if err != nil {
			return nil, 0, 0, err
		}
		samples, elapsed := drive(e, c, jobs, scheds(), tr, opBase)
		var events int64
		for _, s := range samples {
			if s.ran {
				events += jobs[s.job].events
			}
		}
		done += int64(len(samples))
		after, err := c.settledStats(done)
		if err != nil {
			rep.fail(err)
		}
		delta := after.Events - before.Events - events
		if delta != 0 {
			rep.fail(fmt.Errorf("pcapd: /stats counted %d events more than the finished jobs produced", delta))
		}
		for _, s := range samples {
			rep.attempt(s.err)
		}
		return samples, elapsed, delta, nil
	}

	untraced, elapsed, delta, err := measure(nil, 0)
	if err != nil {
		return nil, err
	}
	ok := okRoundTrips(untraced)
	if !e.traced {
		rss := proc.stop()
		proc = nil
		rep.set("setup_s", median(seconds(setups)), "s")
		rep.setLatency(ok)
		ios := 0
		for _, s := range untraced {
			if s.err == nil {
				ios += jobs[s.job].ios
			}
		}
		rep.set("work_per_s", float64(ios)/elapsed.Seconds(), "1/s")
		rep.set("peak_rss_mb", rss, "MB")
		ms := millis(ok)
		p99, pct := tail(ms)
		e.logf("pcapd_jobs_per_s %.2f jobs/s (%d checked jobs in %.2f s, %d clients)", float64(len(ok))/elapsed.Seconds(), len(ok), elapsed.Seconds(), workers)
		e.logf("pcapd_p50_ms %.3f ms (n=%d)", median(ms), len(ms))
		e.logf("pcapd_p99_ms %.3f ms (p%.2f, n=%d)", p99, pct, len(ms))
		e.logf("server.stats_events_delta %d", delta)
		e.logf("trace.encode_s %.4f s (median set-up encode of the replay file)", median(seconds(encode)))
		return rep, nil
	}

	tr := newTracer()
	stop := make(chan struct{})
	queued := sampleQueue(c, stop)
	traced, _, delta, err := measure(tr, len(untraced))
	close(stop)
	queuedMax := <-queued
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(e.dir, fmt.Sprintf("spans-pcapd-%d.jsonl", e.seed)), spans, e.log); err != nil {
		return nil, err
	}

	// Local compute and render time of every distinct job, medians of
	// isolationReps runs.
	for _, j := range jobs {
		var cs, rs []float64
		for range isolationReps {
			c, r, err := j.expect(suites, replayPath)
			if err != nil {
				return nil, err
			}
			cs, rs = append(cs, float64(c)), append(rs, float64(r))
		}
		j.compute, j.render = time.Duration(median(cs)), time.Duration(median(rs))
	}
	var inputs []genInput
	for _, s := range jobSeeds {
		for _, app := range workload.Apps() {
			for x := range evalExecs {
				inputs = append(inputs, genInput{app: app, seed: s, exec: x})
			}
		}
	}
	for _, name := range replayApps {
		app, _ := workload.ByName(name)
		inputs = append(inputs, genInput{app: app, seed: jobSeeds[0], exec: 0})
	}
	st, err := suites.get(jobSeeds[0])
	if err != nil {
		return nil, err
	}
	iso, err := isolate(inputs, st, e.dir)
	if err != nil {
		return nil, err
	}

	// One schedule pass: every eval job once, every replay job
	// replayWeight times.
	var cells, ios int
	var cellTime, renderTime time.Duration
	for _, j := range jobs {
		w := 1
		if j.spec.Kind == server.KindReplay {
			w = replayWeight
		}
		cells += w * len(j.spec.Policies)
		ios += w * j.ios
		cellTime += time.Duration(w) * j.compute
		renderTime += time.Duration(w) * j.render
	}
	layers := byName(spans)
	rep.setIsolation(iso)
	rep.setSim(cells, ios, cellTime, iso)
	rep.set("experiments.render_s", renderTime.Seconds(), "s")
	rep.set("bench.trace_overhead_frac", median(millis(okRoundTrips(traced)))/median(millis(ok))-1, "ratio")
	rep.set("bench.unattributed_frac", unattributed(layers), "ratio")

	rt, comp := map[string][]float64{}, map[string][]float64{}
	var overhead []float64
	bytesTotal := 0
	for _, s := range traced {
		if s.err != nil {
			continue
		}
		j := jobs[s.job]
		kind := j.spec.Kind
		rt[kind] = append(rt[kind], float64(s.rt)/1e6)
		comp[kind] = append(comp[kind], float64(j.compute)/1e6)
		overhead = append(overhead, float64(s.rt-j.compute)/1e6)
		bytesTotal += s.bytes
	}
	for _, kind := range []string{server.KindEval, server.KindReplay} {
		e.logf("server.roundtrip_ms.%s %.3f ms (p50, n=%d)", kind, median(rt[kind]), len(rt[kind]))
		e.logf("server.compute_ms.%s %.3f ms (p50 of the local computation of the same jobs)", kind, median(comp[kind]))
	}
	e.logf("server.overhead_ms %.3f ms (p50 of round trip minus local compute, n=%d)", median(overhead), len(overhead))
	e.logf("server.queued_max %d", queuedMax)
	if len(overhead) > 0 {
		e.logf("server.response_bytes %.1f B (mean)", float64(bytesTotal)/float64(len(overhead)))
	}
	e.logf("server.stats_events_delta %d", delta)
	return rep, nil
}

// warmUp runs one pass of the distinct jobs on each of clients
// concurrent clients, each starting at a different job, checks every
// output, and returns the number of jobs run.
func warmUp(c *client, jobs []*pcapdJob, clients int, rep *report) int64 {
	errs := make([][]error, clients)
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range jobs {
				j := jobs[(n+k*len(jobs)/clients)%len(jobs)]
				v, _, _, err := c.submit(&j.spec, nil, 0)
				if err == nil {
					err = j.check(v.Output)
				}
				errs[k] = append(errs[k], err)
			}
		}()
	}
	wg.Wait()
	for _, es := range errs {
		for _, err := range es {
			if err != nil {
				rep.fail(fmt.Errorf("pcapd warm-up: %w", err))
			}
		}
	}
	return int64(clients * len(jobs))
}

// okRoundTrips returns the round trips of the jobs that passed their
// check.
func okRoundTrips(samples []sample) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s.rt)
		}
	}
	return out
}

// sampleQueue polls GET /stats until stop closes and then sends the
// largest queue depth it saw.
func sampleQueue(c *client, stop <-chan struct{}) <-chan int {
	res := make(chan int, 1)
	go func() {
		maxQueued := 0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				res <- maxQueued
				return
			case <-tick.C:
				if st, err := c.stats(); err == nil {
					maxQueued = max(maxQueued, st.Queued)
				}
			}
		}
	}()
	return res
}
