package main

import (
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the timing a tail metric reports: p99, or — when there are
// too few samples for p99 to have ten beyond it — the highest percentile
// that still has at least ten samples beyond it. pct is that percentile
// (nearest rank). Below twenty samples that percentile would fall below
// the median (below eleven, none exists), so tail returns the maximum
// with pct 100.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n < 20 {
		return s[n-1], 100
	}
	k := int(math.Ceil(0.99*float64(n))) - 1
	k = min(k, n-11)
	return s[k], 100 * float64(k+1) / float64(n)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// opStats holds the checked operations of one sequential window.
type opStats struct {
	times  []time.Duration
	peakMB []float64 // each operation's peak resident memory
}

// sequential runs op back to back until the window has passed (at least
// once). Each operation starts from a collected heap whose memory has
// been returned to the OS, as a fresh process does, and its peak
// resident memory is sampled. op returns the operation's time, the
// result of its output check (recorded in rep) and any error that stops
// the run; only operations that pass their check are kept.
func sequential(window time.Duration, rep *report, op func() (time.Duration, error, error)) (*opStats, error) {
	st := &opStats{}
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < window; n++ {
		debug.FreeOSMemory()
		mem := startMemPeak()
		d, checkErr, err := op()
		peak := mem.end()
		if err != nil {
			return nil, err
		}
		rep.attempt(checkErr)
		if checkErr == nil {
			st.times = append(st.times, d)
			st.peakMB = append(st.peakMB, peak)
		}
	}
	return st, nil
}

// setLatency reports an operation latency distribution.
func (r *report) setLatency(ops []time.Duration) {
	ms := millis(ops)
	r.set("op_p50_ms", median(ms), "ms")
	v, _ := tail(ms)
	r.set("op_tail_ms", v, "ms")
}

// logSetups prints every set-up time of the run; setup_s is their
// median.
func (e *env) logSetups(setups []time.Duration) {
	e.logf("setup_s is the median of %d set-ups: %.3f s", len(setups), seconds(setups))
}

// setSequential reports the end-to-end metrics of a sequential
// workload whose operations each simulate ios pre-cache I/Os.
func (r *report) setSequential(setups []time.Duration, st *opStats, ios int) {
	r.set("setup_s", median(seconds(setups)), "s")
	r.setLatency(st.times)
	r.set("work_per_s", float64(ios)*float64(len(st.times))/sum(st.times).Seconds(), "1/s")
	r.set("peak_rss_mb", median(st.peakMB), "MB")
}

// childPeakRSSMB returns an exited child process's peak resident set in
// MB.
func childPeakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return 0
}

// residentMB returns the memory the Go runtime holds from the OS: all
// it has mapped, less the heap it has released back.
func residentMB() float64 {
	ms := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(ms)
	return float64(ms[0].Value.Uint64()-ms[1].Value.Uint64()) / (1 << 20)
}

// memPeak samples residentMB until stopped and keeps the peak.
type memPeak struct {
	stop chan struct{}
	done chan float64
}

// startMemPeak starts sampling every 5 ms.
func startMemPeak() *memPeak {
	m := &memPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		peak := residentMB()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				m.done <- max(peak, residentMB())
				return
			case <-tick.C:
				peak = max(peak, residentMB())
			}
		}
	}()
	return m
}

// end stops sampling and returns the peak in MB.
func (m *memPeak) end() float64 {
	close(m.stop)
	return <-m.done
}

// runtimeSample is a snapshot of the Go runtime's allocation and CPU
// accounting, for deltas around a measured section.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func sampleRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	value := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		default:
			return 0
		}
	}
	return runtimeSample{
		allocBytes: value(ms[0]),
		gcCPU:      value(ms[1]),
		totalCPU:   value(ms[2]),
	}
}

// gcFrac returns the share of CPU time the garbage collector used
// between two samples.
func gcFrac(before, after runtimeSample) float64 {
	total := after.totalCPU - before.totalCPU
	if total <= 0 {
		return 0
	}
	return (after.gcCPU - before.gcCPU) / total
}
