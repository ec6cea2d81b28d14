package prefetch

// Differential test: the evaluation against a retained copy of the
// original container/list + map block cache. Both consume the same
// randomized read streams with freshly built prefetchers; every Result
// counter must match exactly.

import (
	"container/list"
	"fmt"
	"math/rand"
	"testing"

	"pcapsim/internal/trace"
)

// refCache is the original read-only LRU block cache, kept as the
// differential oracle.
type refCache struct {
	cap     int
	entries map[int64]*list.Element
	lru     *list.List // of *refEntry
}

type refEntry struct {
	block      int64
	prefetched bool
}

func newRefCache(capBlocks int) *refCache {
	return &refCache{cap: capBlocks, entries: make(map[int64]*list.Element), lru: list.New()}
}

// touch looks a block up as a demand read; see the original blockCache.
// A miss inserts the block and reports whether that evicted an unused
// prefetch.
func (c *refCache) touch(block int64) (hit, wasPrefetched, wastedEviction bool) {
	el, ok := c.entries[block]
	if !ok {
		return false, false, c.insert(block, false)
	}
	e := el.Value.(*refEntry)
	wasPrefetched = e.prefetched
	e.prefetched = false
	c.lru.MoveToFront(el)
	return true, wasPrefetched, false
}

// insert pushes then evicts, reporting an unused prefetched victim.
func (c *refCache) insert(block int64, prefetched bool) (wastedEviction bool) {
	if el, ok := c.entries[block]; ok {
		c.lru.MoveToFront(el)
		return false
	}
	c.entries[block] = c.lru.PushFront(&refEntry{block: block, prefetched: prefetched})
	if len(c.entries) <= c.cap {
		return false
	}
	oldest := c.lru.Back()
	victim := oldest.Value.(*refEntry)
	c.lru.Remove(oldest)
	delete(c.entries, victim.block)
	return victim.prefetched
}

// refEvaluate is the original evaluation loop over the oracle cache. A
// read spans its byte count rounded up to whole 4 KB blocks, at least one.
func refEvaluate(traces []*trace.Trace, capBlocks int, p Prefetcher) Result {
	res := Result{Prefetcher: p.Name()}
	for _, tr := range traces {
		cache := newRefCache(capBlocks)
		for _, e := range tr.Events {
			if e.Kind != trace.KindIO || e.Access != trace.AccessRead && e.Access != trace.AccessOpen {
				continue
			}
			blocks := (int(e.Size) + 4095) / 4096
			if blocks < 1 {
				blocks = 1
			}
			for i := 0; i < blocks; i++ {
				block := e.Block + int64(i)
				res.DemandReads++
				hit, wasPrefetched, wastedEviction := cache.touch(block)
				if !hit {
					res.DemandMisses++
					if wastedEviction {
						res.Wasted++
					}
				} else if wasPrefetched {
					res.PrefetchHits++
				}
				for n, pb := p.OnRead(e.PC, block), block+1; pb <= block+int64(n); pb++ {
					if _, resident := cache.entries[pb]; resident {
						continue
					}
					res.Prefetched++
					if cache.insert(pb, true) {
						res.Wasted++
					}
				}
			}
		}
		for el := cache.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*refEntry).prefetched {
				res.Wasted++
			}
		}
	}
	return res
}

// randStreams draws one to three executions of interleaved per-PC read
// streams: mostly sequential runs that jump now and then, over a block
// range a few times the cache, mixed with writes, closes and process
// events the evaluation must skip. Sizes stay at or below one block or
// at whole multiples of it.
func randStreams(r *rand.Rand, capBlocks int) []*trace.Trace {
	span := int64(3*capBlocks + 10)
	sizes := []int32{0, 4096, 4096, 4096, 8192, 12288}
	var traces []*trace.Trace
	for x := 1 + r.Intn(3); x > 0; x-- {
		tr := &trace.Trace{App: "rand"}
		next := make(map[trace.PC]int64)
		var now trace.Time
		for i := 0; i < 400; i++ {
			now += trace.Time(1 + r.Intn(1000))
			pc := trace.PC(0x100 * (1 + r.Intn(4)))
			e := trace.Event{Time: now, Pid: trace.PID(1 + r.Intn(2)), Kind: trace.KindIO, PC: pc, FD: 3}
			switch k := r.Intn(20); {
			case k == 0:
				e.Kind = trace.KindFork
			case k == 1:
				e.Access = trace.AccessWrite
			case k == 2:
				e.Access = trace.AccessClose
			case k < 5:
				e.Access = trace.AccessOpen
			default:
				e.Access = trace.AccessRead
			}
			b, ok := next[pc]
			if !ok || r.Intn(8) == 0 {
				b = r.Int63n(span)
			}
			e.Block = b
			if r.Intn(4) == 0 {
				e.Size = int32(1 + r.Intn(4096))
			} else {
				e.Size = sizes[r.Intn(len(sizes))]
			}
			next[pc] = b + int64(max(1, (int(e.Size)+4095)/4096))
			tr.Events = append(tr.Events, e)
		}
		traces = append(traces, tr)
	}
	return traces
}

// TestEvaluateMatchesReference compares exact Results on randomized
// streams at capacities from one block (every insert evicts) to 64.
func TestEvaluateMatchesReference(t *testing.T) {
	var hits, wasted int
	for _, capBlocks := range []int{1, 2, 7, 64} {
		for seed := int64(1); seed <= 40; seed++ {
			r := rand.New(rand.NewSource(seed*1000 + int64(capBlocks)))
			traces := randStreams(r, capBlocks)
			degree := 1 + r.Intn(8)
			// One pass feeds all three prefetchers; the oracle runs each
			// alone on a fresh instance.
			rs, err := Evaluate(traces, capBlocks, None{}, NewGlobalReadahead(degree), NewPCReadahead(degree))
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range []Prefetcher{None{}, NewGlobalReadahead(degree), NewPCReadahead(degree)} {
				got, want := rs[i], refEvaluate(traces, capBlocks, p)
				if got != want {
					t.Fatalf("%s\n got %+v\nwant %+v", fmt.Sprintf("cap=%d seed=%d degree=%d", capBlocks, seed, degree), got, want)
				}
				if got.Prefetched != got.PrefetchHits+got.Wasted {
					t.Fatalf("cap=%d seed=%d degree=%d: %d prefetched != %d hits + %d wasted",
						capBlocks, seed, degree, got.Prefetched, got.PrefetchHits, got.Wasted)
				}
				hits += got.PrefetchHits
				wasted += got.Wasted
			}
		}
	}
	// The streams must exercise both prefetch outcomes, or the comparison
	// proves little.
	if hits == 0 || wasted == 0 {
		t.Fatalf("streams never scored a prefetch: %d hits, %d wasted", hits, wasted)
	}
	t.Logf("%d prefetch hits, %d wasted", hits, wasted)
}
