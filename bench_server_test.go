// pcapd benchmark: the daemon's sustained job throughput under 32
// concurrent closed-loop clients, live counters included. It is the
// recorded jobs/s / events/s headline in BENCH_PR9.json and feeds the
// benchjson gate in ci.sh.
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
)

// BenchmarkPcapdSustained drives a full in-process pcapd (HTTP transport
// included) with 32 concurrent closed-loop clients submitting small
// synchronous eval jobs — the same shape as the recorded pcapload run.
// One iteration is one completed job round-trip; events/s comes from the
// server's own live counters over the measured window, so it
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
