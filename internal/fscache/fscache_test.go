package fscache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pcapsim/internal/trace"
)

func newTestCache(t *testing.T) *Cache {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// filterOne runs a one-event trace through c: the flush daemon up to the
// event's time, then the event.
func filterOne(c *Cache, e trace.Event) ([]trace.Event, error) {
	return c.FilterInto(nil, []trace.Event{e})
}

// Advance runs the flush daemon up to time t (exclusive of future wakes)
// and returns any flush disk accesses; FilterInto does the same before
// each event.
func (c *Cache) Advance(t trace.Time) []trace.Event {
	return c.runFlushDaemon(nil, t)
}

func ioEvent(at trace.Time, pid trace.PID, acc trace.Access, block int64, size int32) trace.Event {
	return trace.Event{
		Time: at, Pid: pid, Kind: trace.KindIO,
		Access: acc, PC: 0x1000, FD: 3, Block: block, Size: size,
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Blocks() != 64 {
		t.Errorf("256 KB / 4 KB should be 64 blocks, got %d", cfg.Blocks())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, BlockSize: 0, FlushInterval: trace.Second, WakeInterval: trace.Second},
		{SizeBytes: 100, BlockSize: 4096, FlushInterval: trace.Second, WakeInterval: trace.Second},
		{SizeBytes: 8192, BlockSize: 4096, FlushInterval: 0, WakeInterval: trace.Second},
		{SizeBytes: 8192, BlockSize: 4096, FlushInterval: trace.Second, WakeInterval: 0},
		// A size that is not a whole number of blocks must be rejected, not
		// silently truncated by Blocks().
		{SizeBytes: 10000, BlockSize: 4096, FlushInterval: trace.Second, WakeInterval: trace.Second},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestConfigRejectsPartialBlocks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SizeBytes += 1 // 256 KB + 1 byte: not a multiple of 4 KB
	if err := cfg.Validate(); err == nil {
		t.Fatal("non-multiple SizeBytes accepted")
	}
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a non-multiple SizeBytes")
	}
	// Exact multiples of any block size pass and divide exactly.
	cfg.SizeBytes = 7 * cfg.BlockSize
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Blocks() != 7 {
		t.Errorf("Blocks() = %d, want 7", cfg.Blocks())
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := newTestCache(t)
	out, err := filterOne(c, ioEvent(0, 1, trace.AccessRead, 10, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("cold read produced %d accesses", len(out))
	}
	out, err = filterOne(c, ioEvent(1000, 1, trace.AccessRead, 10, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("warm read produced %d accesses", len(out))
	}
	st := c.Stats()
	if st.Reads != 2 || st.ReadHits != 1 || st.DiskReads != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestMultiBlockReadSpans(t *testing.T) {
	c := newTestCache(t)
	out, err := filterOne(c, ioEvent(0, 1, trace.AccessRead, 100, 3*4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("3-block read produced %d accesses", len(out))
	}
	for i, e := range out {
		if e.Block != 100+int64(i) {
			t.Errorf("access %d block %d", i, e.Block)
		}
	}
}

func TestWriteIsAbsorbed(t *testing.T) {
	c := newTestCache(t)
	out, err := filterOne(c, ioEvent(0, 1, trace.AccessWrite, 5, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("write-back cache emitted %d accesses for a write", len(out))
	}
	if c.DirtyLen() != 1 {
		t.Errorf("dirty blocks = %d", c.DirtyLen())
	}
}

func TestLRUEvictionWritesBackDirty(t *testing.T) {
	c := newTestCache(t)
	// Dirty one block, then stream reads through the whole cache.
	if _, err := filterOne(c, ioEvent(0, 7, trace.AccessWrite, 999, 4096)); err != nil {
		t.Fatal(err)
	}
	var wb []trace.Event
	for i := 0; i < 64; i++ {
		out, err := filterOne(c, ioEvent(trace.Time(i+1), 1, trace.AccessRead, int64(i), 4096))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out {
			if e.Access == trace.AccessWrite {
				wb = append(wb, e)
			}
		}
	}
	if len(wb) != 1 {
		t.Fatalf("expected exactly one write-back, got %d", len(wb))
	}
	if wb[0].Block != 999 || wb[0].PC != KernelFlushPC || wb[0].Pid != KernelFlushPID {
		t.Errorf("write-back event %+v", wb[0])
	}
	if c.Stats().EvictionWrites != 1 {
		t.Errorf("eviction writes = %d", c.Stats().EvictionWrites)
	}
	if c.Len() != 64 {
		t.Errorf("cache holds %d blocks, want 64", c.Len())
	}
}

func TestFlushDaemonAgesDirtyBlocks(t *testing.T) {
	c := newTestCache(t)
	if _, err := filterOne(c, ioEvent(trace.Second, 4, trace.AccessWrite, 50, 4096)); err != nil {
		t.Fatal(err)
	}
	// Before the age threshold nothing flushes.
	if out := c.Advance(29 * trace.Second); len(out) != 0 {
		t.Fatalf("premature flush: %d events", len(out))
	}
	// The first wake at or after dirtied+30s writes the block. Wakes land
	// on the 5 s grid, so the flush occurs at t=35 s.
	out := c.Advance(60 * trace.Second)
	if len(out) != 1 {
		t.Fatalf("flush events = %d", len(out))
	}
	e := out[0]
	if e.Time != 35*trace.Second {
		t.Errorf("flush at %v, want 35 s", e.Time)
	}
	if e.Pid != KernelFlushPID || e.PC != KernelFlushPC || e.Access != trace.AccessWrite || e.Block != 50 {
		t.Errorf("flush event %+v", e)
	}
	if c.Stats().FlushWrites != 1 {
		t.Errorf("flush writes = %d", c.Stats().FlushWrites)
	}
	// Once flushed, the block is clean: no further flushes.
	if out := c.Advance(120 * trace.Second); len(out) != 0 {
		t.Fatalf("re-flush of clean block: %d events", len(out))
	}
}

// TestFlushDaemonSkipsIdleWakes: a write followed by a read 9×10¹⁷ µs
// later (or at the end of the clock's range) flushes the block once, at
// its wake-grid time, without stepping through the idle wakes between.
// A write at the start of the clock's range flushes at the first wake.
func TestFlushDaemonSkipsIdleWakes(t *testing.T) {
	for _, tc := range []struct{ write, far, flush trace.Time }{
		{1000, 9e17, 35 * trace.Second},
		{1000, math.MaxInt64, 35 * trace.Second},
		{math.MinInt64, 9e17, 5 * trace.Second},
	} {
		c := newTestCache(t)
		out, err := c.FilterInto(nil, []trace.Event{
			ioEvent(tc.write, 4, trace.AccessWrite, 50, 4096),
			ioEvent(tc.far, 4, trace.AccessRead, 7, 4096),
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || out[0].Pid != KernelFlushPID || out[0].Time != tc.flush ||
			out[1].Time != tc.far || out[1].Block != 7 {
			t.Fatalf("write at %d, read at %d: disk accesses %+v, want the flush at %d then the read", tc.write, tc.far, out, tc.flush)
		}
		if c.Stats().FlushWrites != 1 {
			t.Errorf("write at %d, read at %d: flush writes = %d, want 1", tc.write, tc.far, c.Stats().FlushWrites)
		}
	}
}

func TestRedirtyResetsNothing(t *testing.T) {
	// Re-dirtying an already-dirty block keeps the original age (the
	// paper's 30-second timer flushes data that has been dirty that long).
	c := newTestCache(t)
	if _, err := filterOne(c, ioEvent(0, 1, trace.AccessWrite, 9, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := filterOne(c, ioEvent(25*trace.Second, 1, trace.AccessWrite, 9, 4096)); err != nil {
		t.Fatal(err)
	}
	out := c.Advance(40 * trace.Second)
	if len(out) != 1 || out[0].Time != 30*trace.Second {
		t.Fatalf("flush events %v", out)
	}
}

func TestOpenIsMetadataRead(t *testing.T) {
	c := newTestCache(t)
	out, err := filterOne(c, ioEvent(0, 1, trace.AccessOpen, 200, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Access != trace.AccessOpen {
		t.Fatalf("open produced %v", out)
	}
	// Second open of the same file hits the cached metadata.
	out, err = filterOne(c, ioEvent(1, 1, trace.AccessOpen, 200, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("warm open produced %d accesses", len(out))
	}
}

func TestCloseIsFree(t *testing.T) {
	c := newTestCache(t)
	out, err := filterOne(c, ioEvent(0, 1, trace.AccessClose, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("close generated disk traffic")
	}
}

func TestFilterRejectsUnknownAccess(t *testing.T) {
	c := newTestCache(t)
	if _, err := filterOne(c, ioEvent(0, 1, trace.Access(99), 1, 4096)); err == nil {
		t.Fatal("unknown access accepted by FilterInto")
	}
}

func TestFilterPreservesOrderAndLifecycle(t *testing.T) {
	c := newTestCache(t)
	events := []trace.Event{
		ioEvent(trace.Second, 1, trace.AccessWrite, 1, 4096),
		{Time: 2 * trace.Second, Pid: 1, Kind: trace.KindFork, Child: 2},
		ioEvent(3*trace.Second, 2, trace.AccessRead, 2, 4096),
		{Time: 50 * trace.Second, Pid: 2, Kind: trace.KindExit},
		ioEvent(60*trace.Second, 1, trace.AccessRead, 3, 4096),
	}
	out, err := c.FilterInto(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	var last trace.Time
	forks, exits, flushes := 0, 0, 0
	for _, e := range out {
		if e.Time < last {
			t.Fatalf("out of order at %v < %v", e.Time, last)
		}
		last = e.Time
		switch {
		case e.Kind == trace.KindFork:
			forks++
		case e.Kind == trace.KindExit:
			exits++
		case e.Pid == KernelFlushPID:
			flushes++
		}
	}
	if forks != 1 || exits != 1 {
		t.Errorf("lifecycle events lost: forks=%d exits=%d", forks, exits)
	}
	// The write at t=1 must have flushed before the read at t=60.
	if flushes != 1 {
		t.Errorf("flush events = %d", flushes)
	}
}

func TestQuickCacheInvariants(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, _ := New(cfg)
		now := trace.Time(0)
		for i := 0; i < 300; i++ {
			now += trace.Time(r.Int63n(int64(2 * trace.Second)))
			acc := trace.AccessRead
			if r.Intn(3) == 0 {
				acc = trace.AccessWrite
			}
			out, err := filterOne(c, ioEvent(now, 1, acc, int64(r.Intn(200)), 4096))
			if err != nil {
				return false
			}
			// The cache never exceeds capacity and never emits events
			// timestamped in the future.
			if c.Len() > cfg.Blocks() {
				return false
			}
			for _, e := range out {
				if e.Time > now {
					return false
				}
			}
		}
		st := c.Stats()
		return st.ReadHits <= st.Reads && st.DiskReads <= st.Reads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
