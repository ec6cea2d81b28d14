package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pcapsim/internal/core"
	"pcapsim/internal/experiments"
	"pcapsim/internal/fscache"
	"pcapsim/internal/predictor"
	"pcapsim/internal/sim"
	"pcapsim/internal/trace"
	"pcapsim/internal/workload"
)

// Isolation passes time the layers that run inside a single call the
// benchmark cannot split (workload generation, the v2 codec, the file
// cache filter, the PCAP and LT per-process predictors). Each pass calls
// the layer's public functions on the workload's own inputs, several
// times, and keeps the median pass.

// isolationReps is the number of times each isolation pass runs.
const isolationReps = 5

// genInput names one execution to generate: an application, a workload
// seed and an execution index.
type genInput struct {
	app  *workload.App
	seed uint64
	exec int
}

// isolation holds the per-layer figures of one set of executions.
type isolation struct {
	events, ios int

	genNsPerEvent    float64
	encodeS          float64
	decodeMs         float64 // sequential decode (workers 0)
	decodeParMs      float64 // parallel block decode, one worker per CPU
	filterS          float64 // one filter pass over every execution
	diskAccessRatio  float64 // disk accesses after the cache per pre-cache I/O
	coreNsPerAccess  float64
	ltreeNsPerAccess float64
}

func (iso *isolation) decodeEventsPerS() float64 {
	return float64(iso.events) / (iso.decodeMs / 1e3)
}

func (iso *isolation) filterNsPerIO() float64 {
	return iso.filterS * 1e9 / float64(iso.ios)
}

// medianPass runs pass isolationReps times and returns the median time.
func medianPass(pass func() error) (time.Duration, error) {
	var ts []float64
	for range isolationReps {
		start := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		ts = append(ts, float64(time.Since(start)))
	}
	return time.Duration(median(ts)), nil
}

// isolate runs every isolation pass over the generated inputs, writing
// the encoded file into dir. suite supplies the PCAP and LT policies
// with the simulator's configuration.
func isolate(inputs []genInput, suite *experiments.Suite, dir string) (*isolation, error) {
	iso := &isolation{}

	// workload: App.AppendEvents.
	traces := make([]*trace.Trace, len(inputs))
	var buf []trace.Event
	gen, err := medianPass(func() error {
		for i, in := range inputs {
			buf = in.app.AppendEvents(buf[:0], in.seed, in.exec)
			if traces[i] == nil {
				traces[i] = &trace.Trace{App: in.app.Name, Execution: in.exec, Events: append([]trace.Event(nil), buf...)}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, tr := range traces {
		iso.events += len(tr.Events)
		iso.ios += tr.IOCount()
	}
	if iso.events == 0 || iso.ios == 0 {
		return nil, fmt.Errorf("isolation inputs hold no I/O events")
	}
	iso.genNsPerEvent = float64(gen) / float64(iso.events)

	// trace: WriteColumnarIndexed, then OpenTraceFileOpts drains.
	var enc bytes.Buffer
	encT, err := medianPass(func() error {
		enc.Reset()
		return trace.WriteColumnarIndexed(&enc, traces...)
	})
	if err != nil {
		return nil, err
	}
	iso.encodeS = encT.Seconds()
	path := filepath.Join(dir, "isolation.pct2")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		return nil, err
	}
	for _, workers := range []int{0, runtime.NumCPU()} {
		d, err := medianPass(func() error {
			n, err := drainFile(path, workers)
			if err == nil && n != iso.events {
				err = fmt.Errorf("decode at %d workers returned %d events, want %d", workers, n, iso.events)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		if workers == 0 {
			iso.decodeMs = float64(d) / float64(time.Millisecond)
		} else {
			iso.decodeParMs = float64(d) / float64(time.Millisecond)
		}
	}

	// fscache: one cache reset per execution, as the simulator does.
	cache, err := fscache.New(sim.DefaultConfig().Cache)
	if err != nil {
		return nil, err
	}
	var out []trace.Event
	streams := make([]map[trace.PID][]predictor.Access, len(traces))
	filt, err := medianPass(func() error {
		for i, tr := range traces {
			cache.Reset()
			filtered, err := cache.FilterInto(out[:0], tr.Events)
			if err != nil {
				return err
			}
			out = filtered
			if streams[i] == nil {
				streams[i] = perPidAccesses(out)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	iso.filterS = filt.Seconds()

	// core and ltree: Process.OnAccess over the filtered per-pid streams.
	accesses := 0
	for _, byPid := range streams {
		for _, as := range byPid {
			accesses += len(as)
		}
	}
	if accesses == 0 {
		return nil, fmt.Errorf("isolation inputs produced no disk accesses")
	}
	iso.diskAccessRatio = float64(accesses) / float64(iso.ios)
	for _, pol := range []sim.Policy{suite.PolicyPCAP(core.VariantBase), suite.PolicyLT()} {
		d, err := medianPass(func() error {
			f := pol.NewFactory()
			for _, byPid := range streams {
				for pid, as := range byPid {
					p := f.NewProcess(pid)
					for _, a := range as {
						p.OnAccess(a)
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		ns := float64(d) / float64(accesses)
		if pol.Name == "LT" {
			iso.ltreeNsPerAccess = ns
		} else {
			iso.coreNsPerAccess = ns
		}
	}
	return iso, nil
}

// perPidAccesses splits a filtered event stream into per-process disk
// access streams.
func perPidAccesses(events []trace.Event) map[trace.PID][]predictor.Access {
	m := make(map[trace.PID][]predictor.Access)
	for _, e := range events {
		if e.IsIO() {
			m[e.Pid] = append(m[e.Pid], predictor.Access{Time: e.Time, PC: e.PC, FD: e.FD, Access: e.Access, Block: e.Block})
		}
	}
	return m
}

// drain reads every execution of src and returns the event count.
func drain(src trace.Source) (int, error) {
	var buf []trace.Event
	n := 0
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		buf = trace.Drain(src, buf)
		n += len(buf)
	}
	return n, src.Err()
}

// drainFile decodes every execution of a trace file and returns the
// event count.
func drainFile(path string, workers int) (int, error) {
	fs, err := trace.OpenTraceFileOpts(path, trace.OpenOptions{Workers: workers})
	if err != nil {
		return 0, err
	}
	defer fs.Close()
	return drain(fs)
}

// setIsolation reports the isolation figures under their per-layer
// metric names.
func (r *report) setIsolation(iso *isolation) {
	r.set("workload.gen_ns_per_event", iso.genNsPerEvent, "ns")
	r.set("trace.encode_s", iso.encodeS, "s")
	r.set("trace.decode_ms", iso.decodeMs, "ms")
	r.set("trace.decode_par_ms", iso.decodeParMs, "ms")
	r.set("trace.decode_events_per_s", iso.decodeEventsPerS(), "1/s")
	r.set("fscache.filter_s", iso.filterS, "s")
	r.set("fscache.disk_access_ratio", iso.diskAccessRatio, "ratio")
	r.set("core.ns_per_access", iso.coreNsPerAccess, "ns")
	r.set("ltree.ns_per_access", iso.ltreeNsPerAccess, "ns")
}

// setSim reports the simulation-layer figures of one cycle of work:
// cells single-machine simulations over ios pre-cache I/Os in cellTime
// host time, and the filter share they imply at the isolated filter
// cost per I/O.
func (r *report) setSim(cells, ios int, cellTime time.Duration, iso *isolation) {
	r.set("sim.cells", float64(cells), "count")
	r.set("sim.ios", float64(ios), "count")
	r.set("sim.cell_s", cellTime.Seconds(), "s")
	r.set("sim.ns_per_io", float64(cellTime)/float64(ios), "ns")
	r.set("fscache.filter_share", iso.filterNsPerIO()*float64(ios)/float64(cellTime), "ratio")
}
