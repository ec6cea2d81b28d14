package fscache

// Differential tests: the arena-backed intrusive-LRU cache against a
// retained copy of the original container/list + map implementation. Both
// models consume identical operation sequences; every emitted disk access,
// every counter, and the cache occupancy must match exactly — this is the
// proof that the allocation-free rewrite changes no simulation output.

import (
	"container/list"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pcapsim/internal/trace"
)

// refBlock mirrors the original implementation's cached block.
type refBlock struct {
	id      int64
	dirty   bool
	owner   trace.PID
	fd      trace.FD
	dirtied trace.Time
}

// refCache is the original container/list + map implementation, kept
// verbatim (modulo the helper split) as the differential oracle.
type refCache struct {
	cfg       Config
	entries   map[int64]*list.Element
	lru       *list.List
	stats     Stats
	nextFlush trace.Time
}

func newRefCache(cfg Config) *refCache {
	return &refCache{
		cfg:       cfg,
		entries:   make(map[int64]*list.Element),
		lru:       list.New(),
		nextFlush: cfg.WakeInterval,
	}
}

func (c *refCache) Stats() Stats { return c.stats }
func (c *refCache) Len() int     { return len(c.entries) }

func (c *refCache) DirtyLen() int {
	n := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*refBlock).dirty {
			n++
		}
	}
	return n
}

func (c *refCache) spanBlocks(e trace.Event) []int64 {
	if e.Size <= 0 {
		return []int64{e.Block}
	}
	n := (int(e.Size) + c.cfg.BlockSize - 1) / c.cfg.BlockSize
	if n < 1 {
		n = 1
	}
	blocks := make([]int64, n)
	for i := range blocks {
		blocks[i] = e.Block + int64(i)
	}
	return blocks
}

func (c *refCache) touchRead(e trace.Event) (miss bool, writeBack *refBlock) {
	if el, ok := c.entries[e.Block]; ok {
		c.lru.MoveToFront(el)
		return false, nil
	}
	return true, c.insert(&refBlock{id: e.Block})
}

func (c *refCache) touchWrite(e trace.Event) (writeBack *refBlock) {
	if el, ok := c.entries[e.Block]; ok {
		blk := el.Value.(*refBlock)
		if !blk.dirty {
			blk.dirty = true
			blk.dirtied = e.Time
		}
		blk.owner = e.Pid
		blk.fd = e.FD
		c.lru.MoveToFront(el)
		return nil
	}
	return c.insert(&refBlock{id: e.Block, dirty: true, owner: e.Pid, fd: e.FD, dirtied: e.Time})
}

func (c *refCache) insert(b *refBlock) (writeBack *refBlock) {
	c.entries[b.id] = c.lru.PushFront(b)
	if len(c.entries) <= c.cfg.Blocks() {
		return nil
	}
	oldest := c.lru.Back()
	victim := oldest.Value.(*refBlock)
	c.lru.Remove(oldest)
	delete(c.entries, victim.id)
	if victim.dirty {
		c.stats.EvictionWrites++
		return victim
	}
	return nil
}

func (c *refCache) appendWriteBack(out []trace.Event, t trace.Time, wb *refBlock) []trace.Event {
	if wb == nil {
		return out
	}
	return append(out, trace.Event{
		Time:   t,
		Pid:    KernelFlushPID,
		Kind:   trace.KindIO,
		Access: trace.AccessWrite,
		PC:     KernelFlushPC,
		FD:     wb.fd,
		Block:  wb.id,
		Size:   int32(c.cfg.BlockSize),
	})
}

func (c *refCache) Apply(e trace.Event) ([]trace.Event, error) {
	if e.Kind != trace.KindIO {
		return nil, fmt.Errorf("refcache: Apply on non-IO event %v", e)
	}
	switch e.Access {
	case trace.AccessClose:
		return nil, nil
	case trace.AccessOpen:
		meta := e
		meta.Access = trace.AccessRead
		meta.Size = int32(c.cfg.BlockSize)
		var out []trace.Event
		c.stats.Reads++
		if miss, wb := c.touchRead(meta); miss {
			out = c.appendWriteBack(out, e.Time, wb)
			c.stats.DiskReads++
			out = append(out, e)
		} else {
			c.stats.ReadHits++
		}
		return out, nil
	case trace.AccessRead:
		var out []trace.Event
		for _, blk := range c.spanBlocks(e) {
			c.stats.Reads++
			req := e
			req.Block = blk
			if miss, wb := c.touchRead(req); miss {
				out = c.appendWriteBack(out, e.Time, wb)
				c.stats.DiskReads++
				hit := e
				hit.Block = blk
				hit.Size = int32(c.cfg.BlockSize)
				out = append(out, hit)
			} else {
				c.stats.ReadHits++
			}
		}
		return out, nil
	case trace.AccessWrite:
		var out []trace.Event
		for _, blk := range c.spanBlocks(e) {
			c.stats.Writes++
			req := e
			req.Block = blk
			wb := c.touchWrite(req)
			out = c.appendWriteBack(out, e.Time, wb)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("refcache: unknown access %v", e.Access)
	}
}

func (c *refCache) Advance(t trace.Time) []trace.Event {
	var out []trace.Event
	for c.nextFlush < t {
		wake := c.nextFlush
		for el := c.lru.Front(); el != nil; el = el.Next() {
			blk := el.Value.(*refBlock)
			if blk.dirty && wake-blk.dirtied >= c.cfg.FlushInterval {
				blk.dirty = false
				c.stats.FlushWrites++
				out = append(out, trace.Event{
					Time:   wake,
					Pid:    KernelFlushPID,
					Kind:   trace.KindIO,
					Access: trace.AccessWrite,
					PC:     KernelFlushPC,
					FD:     blk.fd,
					Block:  blk.id,
					Size:   int32(c.cfg.BlockSize),
				})
			}
		}
		c.nextFlush += c.cfg.WakeInterval
	}
	return out
}

// lruOrder lists the cached block ids MRU-first.
func (c *Cache) lruOrder() []int64 {
	var ids []int64
	for s := c.blocks.Newest(); s != 0; s = c.blocks.Older(s) {
		ids = append(ids, c.blocks.Key(s))
	}
	return ids
}

func (c *refCache) lruOrder() []int64 {
	var ids []int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ids = append(ids, el.Value.(*refBlock).id)
	}
	return ids
}

// checkAgainstRef compares the full observable state of both caches.
func checkAgainstRef(t *testing.T, step int, got *Cache, want *refCache, gotOut, wantOut []trace.Event) {
	t.Helper()
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("step %d: disk accesses diverge\n got %+v\nwant %+v", step, gotOut, wantOut)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("step %d: stats diverge\n got %+v\nwant %+v", step, got.Stats(), want.Stats())
	}
	if got.Len() != want.Len() || got.DirtyLen() != want.DirtyLen() {
		t.Fatalf("step %d: occupancy diverges: len %d/%d dirty %d/%d",
			step, got.Len(), want.Len(), got.DirtyLen(), want.DirtyLen())
	}
	if g, w := got.lruOrder(), want.lruOrder(); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: LRU order diverges\n got %v\nwant %v", step, g, w)
	}
}

// cacheConfigBlocks returns a config with the given capacity in blocks.
func cacheConfigBlocks(blocks int) Config {
	cfg := DefaultConfig()
	cfg.SizeBytes = blocks * cfg.BlockSize
	return cfg
}

// TestDifferentialRandomized drives both implementations through long
// randomized workloads at several capacities (including the degenerate
// capacity-1 cache) and demands identical hit/miss/eviction behaviour at
// every step.
func TestDifferentialRandomized(t *testing.T) {
	for _, blocks := range []int{1, 2, 4, 64} {
		for seed := int64(0); seed < 8; seed++ {
			t.Run(fmt.Sprintf("blocks=%d/seed=%d", blocks, seed), func(t *testing.T) {
				cfg := cacheConfigBlocks(blocks)
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefCache(cfg)
				r := rand.New(rand.NewSource(seed))
				now := trace.Time(0)
				for step := 0; step < 2000; step++ {
					now += trace.Time(r.Int63n(int64(3 * trace.Second)))
					if r.Intn(20) == 0 {
						// Let the flush daemon catch up independently.
						gotOut := c.Advance(now)
						wantOut := ref.Advance(now)
						checkAgainstRef(t, step, c, ref, gotOut, wantOut)
						continue
					}
					var acc trace.Access
					switch r.Intn(6) {
					case 0:
						acc = trace.AccessOpen
					case 1, 2:
						acc = trace.AccessWrite
					case 3:
						acc = trace.AccessClose
					default:
						acc = trace.AccessRead
					}
					// Block range ~3x capacity forces steady-state eviction;
					// sizes span 0 bytes (metadata) to 4 blocks.
					e := ioEvent(now, trace.PID(1+r.Intn(3)), acc,
						int64(r.Intn(3*blocks+4)), int32(r.Intn(4*cfg.BlockSize+1)))
					e.FD = trace.FD(r.Intn(5))
					// A one-event FilterInto is the flush daemon up to the
					// event's time, then the event.
					gotOut, err := filterOne(c, e)
					if err != nil {
						t.Fatal(err)
					}
					wantOut := ref.Advance(now)
					applied, err := ref.Apply(e)
					if err != nil {
						t.Fatal(err)
					}
					wantOut = append(wantOut, applied...)
					checkAgainstRef(t, step, c, ref, gotOut, wantOut)
				}
			})
		}
	}
}

// TestDifferentialFilter compares whole-trace filtering, which interleaves
// the flush daemon with I/O and passes lifecycle events through.
func TestDifferentialFilter(t *testing.T) {
	cfg := cacheConfigBlocks(8)
	r := rand.New(rand.NewSource(7))
	var events []trace.Event
	now := trace.Time(0)
	for i := 0; i < 1500; i++ {
		now += trace.Time(r.Int63n(int64(4 * trace.Second)))
		switch r.Intn(12) {
		case 0:
			events = append(events, trace.Event{Time: now, Pid: 1, Kind: trace.KindFork, Child: trace.PID(100 + i)})
		case 1:
			events = append(events, trace.Event{Time: now, Pid: trace.PID(100 + r.Intn(i+1)), Kind: trace.KindExit})
		default:
			acc := trace.AccessRead
			if r.Intn(3) == 0 {
				acc = trace.AccessWrite
			}
			events = append(events, ioEvent(now, trace.PID(1+r.Intn(2)), acc,
				int64(r.Intn(30)), int32(r.Intn(3*cfg.BlockSize+1))))
		}
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.FilterInto(nil, events)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	var want []trace.Event
	for _, e := range events {
		want = append(want, ref.Advance(e.Time)...)
		if e.Kind != trace.KindIO {
			want = append(want, e)
			continue
		}
		out, err := ref.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, out...)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered streams diverge: %d vs %d events", len(got), len(want))
	}
	if c.Stats() != ref.Stats() {
		t.Fatalf("stats diverge: %+v vs %+v", c.Stats(), ref.Stats())
	}
}

// TestDifferentialFarApart drives both caches through events whose gaps
// span same-time bursts, exact wake-grid and flush-age boundaries and
// idle stretches of up to a day, so the flush daemon's skip over idle
// wakes is checked against the reference's one-wake-at-a-time loop: every
// flush must land on the same wake with the same block.
func TestDifferentialFarApart(t *testing.T) {
	for _, blocks := range []int{1, 4, 64} {
		for seed := int64(0); seed < 4; seed++ {
			t.Run(fmt.Sprintf("blocks=%d/seed=%d", blocks, seed), func(t *testing.T) {
				cfg := cacheConfigBlocks(blocks)
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefCache(cfg)
				r := rand.New(rand.NewSource(seed))
				now := trace.Time(0)
				for step := 0; step < 400; step++ {
					switch r.Intn(6) {
					case 0: // same time
					case 1:
						now += trace.Time(1+r.Intn(4)) * cfg.WakeInterval
					case 2:
						now += cfg.FlushInterval + trace.Time(r.Intn(3)-1)
					default: // log-uniform, 1 µs to about a day
						now += trace.Time(math.Exp(r.Float64() * math.Log(float64(24*3600*trace.Second))))
					}
					acc := trace.AccessRead
					if r.Intn(2) == 0 {
						acc = trace.AccessWrite
					}
					e := ioEvent(now, 1, acc, int64(r.Intn(2*blocks+2)), 4096)
					gotOut, err := filterOne(c, e)
					if err != nil {
						t.Fatal(err)
					}
					wantOut := ref.Advance(now)
					applied, err := ref.Apply(e)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstRef(t, step, c, ref, gotOut, append(wantOut, applied...))
				}
			})
		}
	}
}

// TestCapacityOneCache exercises the degenerate arena: every distinct
// block evicts the previous one, dirty or not.
func TestCapacityOneCache(t *testing.T) {
	cfg := cacheConfigBlocks(1)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Dirty block 1, then read block 2: the eviction must write block 1
	// back before the read's disk access.
	if _, err := filterOne(c, ioEvent(0, 1, trace.AccessWrite, 1, 4096)); err != nil {
		t.Fatal(err)
	}
	out, err := filterOne(c, ioEvent(1, 1, trace.AccessRead, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d accesses, want write-back + read", len(out))
	}
	if out[0].Access != trace.AccessWrite || out[0].Block != 1 || out[0].Pid != KernelFlushPID {
		t.Errorf("first access should be the write-back of block 1, got %+v", out[0])
	}
	if out[1].Access != trace.AccessRead || out[1].Block != 2 {
		t.Errorf("second access should be the read of block 2, got %+v", out[1])
	}
	if c.Len() != 1 {
		t.Errorf("capacity-1 cache holds %d blocks", c.Len())
	}
	if c.Stats().EvictionWrites != 1 {
		t.Errorf("eviction writes = %d", c.Stats().EvictionWrites)
	}
}

// TestRetouchMRUKeepsOrder re-touches the MRU entry repeatedly and checks
// the LRU order never changes — the moveToFront fast path must be a no-op.
func TestRetouchMRUKeepsOrder(t *testing.T) {
	c, err := New(cacheConfigBlocks(4))
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 4; b++ {
		if _, err := filterOne(c, ioEvent(trace.Time(b), 1, trace.AccessRead, b, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	want := []int64{3, 2, 1, 0}
	for i := 0; i < 5; i++ {
		if _, err := filterOne(c, ioEvent(trace.Time(10+i), 1, trace.AccessRead, 3, 4096)); err != nil {
			t.Fatal(err)
		}
		if got := c.lruOrder(); !reflect.DeepEqual(got, want) {
			t.Fatalf("retouch %d reordered the list: %v", i, got)
		}
	}
	if c.Stats().ReadHits != 5 {
		t.Errorf("retouches should all hit, got %d hits", c.Stats().ReadHits)
	}
}

// TestEvictionUnderFullArena fills the arena and streams twice the
// capacity through it: every miss must recycle exactly one slot and evict
// strictly in LRU order.
func TestEvictionUnderFullArena(t *testing.T) {
	const blocks = 8
	c, err := New(cacheConfigBlocks(blocks))
	if err != nil {
		t.Fatal(err)
	}
	// Dirty the first `blocks` ids so each later eviction is observable as
	// a write-back, in insertion (LRU) order.
	for b := int64(0); b < blocks; b++ {
		if _, err := filterOne(c, ioEvent(trace.Time(b), 1, trace.AccessWrite, b, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	var victims []int64
	for b := int64(blocks); b < 3*blocks; b++ {
		out, err := filterOne(c, ioEvent(trace.Time(b), 1, trace.AccessRead, b, 4096))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range out {
			if e.Access == trace.AccessWrite {
				victims = append(victims, e.Block)
			}
		}
		if c.Len() != blocks {
			t.Fatalf("arena over/under-full: %d blocks", c.Len())
		}
	}
	want := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	if !reflect.DeepEqual(victims, want) {
		t.Fatalf("dirty evictions out of LRU order: %v", victims)
	}
}

// TestResetMatchesFresh proves the recycled cache is indistinguishable
// from a newly constructed one.
func TestResetMatchesFresh(t *testing.T) {
	cfg := cacheConfigBlocks(4)
	used, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	now := trace.Time(0)
	for i := 0; i < 500; i++ {
		now += trace.Time(r.Int63n(int64(trace.Second)))
		acc := trace.AccessRead
		if r.Intn(2) == 0 {
			acc = trace.AccessWrite
		}
		if _, err := filterOne(used, ioEvent(now, 1, acc, int64(r.Intn(12)), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset()
	fresh, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefCache(cfg)
	now = 0
	for i := 0; i < 500; i++ {
		now += trace.Time(r.Int63n(int64(2 * trace.Second)))
		acc := trace.AccessRead
		if r.Intn(2) == 0 {
			acc = trace.AccessWrite
		}
		e := ioEvent(now, 1, acc, int64(r.Intn(12)), 4096)
		a, err := filterOne(used, e)
		if err != nil {
			t.Fatal(err)
		}
		b, err := filterOne(fresh, e)
		if err != nil {
			t.Fatal(err)
		}
		w := ref.Advance(now)
		applied, err := ref.Apply(e)
		if err != nil {
			t.Fatal(err)
		}
		w = append(w, applied...)
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, w) {
			t.Fatalf("step %d: reset cache diverges from fresh/reference", i)
		}
	}
	if used.Stats() != fresh.Stats() || used.Stats() != ref.Stats() {
		t.Fatalf("stats diverge after reset: %+v vs %+v vs %+v",
			used.Stats(), fresh.Stats(), ref.Stats())
	}
}
