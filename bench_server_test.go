// pcapd benchmarks: the coalesced counter layer against its naive
// shared-atomic and mutex baselines, and the daemon's sustained job
// throughput under 32 concurrent closed-loop clients. The counter
// benches quantify the VSA-style "commit information, not traffic"
// claim: a shard pays one plain add per event and one atomic commit per
// threshold batch, so its per-add cost should sit well below a shared
// atomic's and far below a mutex's. The sustained bench is the recorded
// jobs/s / events/s headline in BENCH_PR9.json and feeds the benchjson
// gate in ci.sh.
package pcapsim

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pcapsim/internal/server"
	"pcapsim/internal/server/stats"
)

// benchParallelism fans each counter benchmark out to this many
// goroutines per GOMAXPROCS so the shared-state baselines feel
// contention even on small CI machines.
const benchParallelism = 8

// BenchmarkCountersCoalesced measures the per-add cost of the sharded
// counter layer: each goroutine owns a stats.Local committing to one
// shared stats.Counters. The exactness contract is asserted after the
// timer stops — the global view must equal b.N exactly.
func BenchmarkCountersCoalesced(b *testing.B) {
	var c stats.Counters
	b.SetParallelism(benchParallelism)
	b.RunParallel(func(pb *testing.PB) {
		l := stats.NewLocal(&c, stats.Options{})
		for pb.Next() {
			l.AddEvents(1)
		}
		l.Flush()
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "adds/s")
	if got := c.Snapshot().Events; got != int64(b.N) {
		b.Fatalf("coalesced counters lost deltas: %d adds, global view %d", b.N, got)
	}
}

// BenchmarkCountersAtomic is the naive baseline the coalesced layer
// replaces: every add is an atomic RMW on one shared cache line.
func BenchmarkCountersAtomic(b *testing.B) {
	var c stats.AtomicCounters
	b.SetParallelism(benchParallelism)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.AddEvents(1)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "adds/s")
	if got := c.Events(); got != int64(b.N) {
		b.Fatalf("atomic counters lost adds: %d adds, view %d", b.N, got)
	}
}

// BenchmarkCountersMutex is the lock-per-add strawman.
func BenchmarkCountersMutex(b *testing.B) {
	var c stats.MutexCounters
	b.SetParallelism(benchParallelism)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.AddEvents(1)
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "adds/s")
	if got := c.Events(); got != int64(b.N) {
		b.Fatalf("mutex counters lost adds: %d adds, view %d", b.N, got)
	}
}

// BenchmarkPcapdSustained drives a full in-process pcapd (HTTP transport
// included) with 32 concurrent closed-loop clients submitting small
// synchronous eval jobs — the same shape as the recorded pcapload run.
// One iteration is one completed job round-trip; events/s comes from the
// server's own coalesced counters over the measured window, so it
// reflects simulation throughput rather than transport overhead.
func BenchmarkPcapdSustained(b *testing.B) {
	srv, err := server.New(server.Config{QueueDepth: 256, DefaultTimeout: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			b.Errorf("shutdown: %v", err)
		}
	}()

	spec := []byte(`{"kind":"eval","app":"nedit","policies":["base","tp","pcap"],"execs":5}`)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	post := func() error {
		resp, err := client.Post(ts.URL+"/jobs?wait=1", "application/json", bytes.NewReader(spec))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		var v struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if v.State != "done" {
			b.Errorf("job finished %q: %s", v.State, data)
		}
		return nil
	}

	// Warmup primes the server's shared suite (workload generation and
	// the retained cache-filtered executions happen once, outside the
	// measured window) and validates the wire path.
	if err := post(); err != nil {
		b.Fatal(err)
	}
	before := srv.Counters().Snapshot().Events

	const clients = 32
	work := make(chan struct{})
	var failed atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				if err := post(); err != nil {
					failed.Add(1)
				}
			}
		}()
	}
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	b.StopTimer()

	if n := failed.Load(); n > 0 {
		b.Fatalf("%d/%d jobs failed", n, b.N)
	}
	elapsed := b.Elapsed().Seconds()
	b.ReportMetric(float64(b.N)/elapsed, "jobs/s")
	b.ReportMetric(float64(srv.Counters().Snapshot().Events-before)/elapsed, "events/s")
}
