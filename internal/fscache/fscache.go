// Package fscache simulates the operating system's file cache, following
// the paper's methodology: collected application I/O traces are filtered
// through a model of the Linux file cache, and only cache misses (plus
// periodic flushes of dirty data) reach the disk and the shutdown
// predictors.
//
// The model matches the paper's Section 6 configuration: a 256 KB cache
// with LRU replacement and a 30-second timer between flushes of dirty
// data. Reads allocate on miss; writes are write-back (dirtying a cached
// block costs no disk access until the flush timer or an eviction writes
// it out). Flush and write-back disk accesses are issued by the kernel's
// flush daemon, tagged with a dedicated pid and PC, so the predictor
// pipeline sees them like any other access — and, as in the paper, their
// impact stays limited because the studied applications write little.
//
// The cache is on the simulator's per-event hot path, so its LRU is an
// lru.List preallocated to the cache capacity: no per-operation
// allocations and no pointer-chasing through boxed list elements.
// Eviction order is identical to the textbook list+map implementation
// (the differential tests in differential_test.go prove it against a
// retained reference model).
package fscache

import (
	"fmt"
	"math"

	"pcapsim/internal/lru"
	"pcapsim/internal/trace"
)

// KernelFlushPC is the synthetic program counter attached to disk writes
// generated by the flush daemon or by dirty evictions. A real kernel would
// show the flush thread's PC here; a stable sentinel preserves the
// property the predictors rely on (stability across executions).
const KernelFlushPC trace.PC = 0xffff0000

// KernelFlushPID is the pseudo-process that performs flush and write-back
// disk writes — the kernel's flush daemon (kupdated). Attributing these
// writes to their own process keeps application PC paths clean, exactly
// as on a real system where the flush thread runs its own code; the
// daemon still participates in the global shutdown predictor.
const KernelFlushPID trace.PID = 9999

// Config parameterizes the cache.
type Config struct {
	// SizeBytes is the total cache capacity. The paper uses 256 KB. It
	// must be a whole number of blocks (Validate rejects sizes that are
	// not a multiple of BlockSize rather than silently truncating).
	SizeBytes int
	// BlockSize is the cache block size in bytes (4 KB, the Linux page
	// size of the period).
	BlockSize int
	// FlushInterval is the dirty-data flush age threshold (30 s in the
	// paper): a block is written out once it has been dirty this long.
	FlushInterval trace.Time
	// WakeInterval is how often the flush daemon wakes to look for aged
	// dirty blocks. Linux's kupdated wakes every 5 s.
	WakeInterval trace.Time
}

// DefaultConfig returns the paper's cache configuration.
func DefaultConfig() Config {
	return Config{
		SizeBytes:     256 * 1024,
		BlockSize:     4 * 1024,
		FlushInterval: 30 * trace.Second,
		WakeInterval:  5 * trace.Second,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BlockSize <= 0:
		return fmt.Errorf("fscache: block size must be positive, got %d", c.BlockSize)
	case c.SizeBytes < c.BlockSize:
		return fmt.Errorf("fscache: size %d below one block (%d)", c.SizeBytes, c.BlockSize)
	case c.SizeBytes%c.BlockSize != 0:
		return fmt.Errorf("fscache: size %d is not a multiple of the block size %d", c.SizeBytes, c.BlockSize)
	case c.FlushInterval <= 0:
		return fmt.Errorf("fscache: flush interval must be positive, got %v", c.FlushInterval)
	case c.WakeInterval <= 0:
		return fmt.Errorf("fscache: wake interval must be positive, got %v", c.WakeInterval)
	}
	return nil
}

// Blocks returns the cache capacity in blocks. The division is exact for
// any configuration Validate accepts.
func (c Config) Blocks() int { return c.SizeBytes / c.BlockSize }

// Stats counts cache activity.
type Stats struct {
	// Reads and Writes count I/O requests presented to the cache.
	Reads, Writes int64
	// ReadHits counts reads served from the cache.
	ReadHits int64
	// DiskReads counts read misses that went to disk.
	DiskReads int64
	// FlushWrites counts dirty blocks written by the flush timer.
	FlushWrites int64
	// EvictionWrites counts dirty blocks written back on eviction.
	EvictionWrites int64
}

// block is the payload of one cached block, kept in a slice indexed by
// the block's lru slot.
type block struct {
	dirtied trace.Time
	fd      trace.FD // descriptor used by the dirtying write
	dirty   bool
}

// Cache simulates the file cache for one execution. It is not safe for
// concurrent use; the simulator drives it from a single goroutine in
// event-time order.
//
// All state lives in arrays preallocated to the configured capacity:
// after New, cache operations perform no allocations (output events append
// to caller-supplied buffers via FilterInto). Reset rewinds the cache for
// the next execution without releasing the arrays.
type Cache struct {
	cfg    Config
	blocks *lru.List[int64] // cached block ids
	meta   []block          // payload by lru slot
	stats  Stats
	// nextFlush is when the flush daemon next wakes.
	nextFlush trace.Time
}

// New returns an empty cache with its storage preallocated.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:    cfg,
		blocks: lru.New[int64](cfg.Blocks()),
		meta:   make([]block, cfg.Blocks()+1),
	}
	c.Reset()
	return c, nil
}

// Reset rewinds the cache to its post-New state — empty, clean stats, the
// flush daemon scheduled for its first wake — without releasing its
// storage. The simulator reuses one cache across the executions of a run.
func (c *Cache) Reset() {
	c.blocks.Reset()
	c.stats = Stats{}
	c.nextFlush = c.cfg.WakeInterval
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Len returns the number of cached blocks.
func (c *Cache) Len() int { return c.blocks.Len() }

// DirtyLen returns the number of dirty cached blocks.
func (c *Cache) DirtyLen() int {
	n := 0
	for s := c.blocks.Newest(); s != 0; s = c.blocks.Older(s) {
		if c.meta[s].dirty {
			n++
		}
	}
	return n
}

// hash spreads a block id over the index (Fibonacci multiplicative hash).
func hash(id int64) uint64 { return uint64(id) * 0x9E3779B97F4A7C15 >> 32 }

// FilterInto runs the events of one execution trace through the cache
// and appends the resulting disk accesses, in time order, to out
// (reusing its capacity, so a caller can recycle one buffer across
// executions). It returns the extended slice. Non-I/O events (fork/exit)
// pass through unchanged so downstream consumers keep process lifetimes.
// Open operations are modelled as metadata reads of the file's first
// block; close operations generate no disk traffic.
func (c *Cache) FilterInto(out []trace.Event, events []trace.Event) ([]trace.Event, error) {
	for _, e := range events {
		// Flush wakes scheduled before this event come first, keeping the
		// output in time order.
		out = c.runFlushDaemon(out, e.Time)
		if e.Kind != trace.KindIO {
			out = append(out, e)
			continue
		}
		var err error
		out, err = c.apply(out, e)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// apply presents one I/O event to the cache and appends the disk
// accesses it generates (zero or more), all timestamped at the event
// time.
func (c *Cache) apply(out []trace.Event, e trace.Event) ([]trace.Event, error) {
	switch e.Access {
	case trace.AccessClose:
		return out, nil
	case trace.AccessOpen:
		// Metadata read of the file's first block; the open itself
		// reaches the disk.
		var miss bool
		if out, miss = c.read(out, e.Time, e.Block); miss {
			out = append(out, e)
		}
		return out, nil
	case trace.AccessRead:
		n := SpanBlocks(e.Size, c.cfg.BlockSize)
		for i := 0; i < n; i++ {
			blk := e.Block + int64(i)
			var miss bool
			if out, miss = c.read(out, e.Time, blk); miss {
				disk := e
				disk.Block = blk
				disk.Size = int32(c.cfg.BlockSize)
				out = append(out, disk)
			}
		}
		return out, nil
	case trace.AccessWrite:
		n := SpanBlocks(e.Size, c.cfg.BlockSize)
		for i := 0; i < n; i++ {
			out = c.write(out, e, e.Block+int64(i))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("fscache: unknown access %v", e.Access)
	}
}

// SpanBlocks returns how many blockSize blocks a request of size bytes
// covers from its first block: the size rounded up to whole blocks, and
// at least one. The prefetch evaluation splits reads by the same rule.
func SpanBlocks(size int32, blockSize int) int {
	return max(1, (int(size)+blockSize-1)/blockSize)
}

// read presents one block read, refreshing the block on a hit. A miss
// allocates the block, appending the write-back of any dirty block it
// displaces to out, and reports true.
func (c *Cache) read(out []trace.Event, t trace.Time, id int64) ([]trace.Event, bool) {
	c.stats.Reads++
	if s := c.blocks.Find(id, hash(id)); s != 0 {
		c.blocks.Touch(s)
		c.stats.ReadHits++
		return out, false
	}
	c.stats.DiskReads++
	return c.insert(out, t, id, block{}), true
}

// write dirties one block of e, allocating it if absent and appending the
// write-back of any dirty block that displaces to out.
func (c *Cache) write(out []trace.Event, e trace.Event, id int64) []trace.Event {
	c.stats.Writes++
	s := c.blocks.Find(id, hash(id))
	if s == 0 {
		return c.insert(out, e.Time, id, block{dirtied: e.Time, fd: e.FD, dirty: true})
	}
	b := &c.meta[s]
	if !b.dirty {
		b.dirty = true
		b.dirtied = e.Time
	}
	b.fd = e.FD
	c.blocks.Touch(s)
	return out
}

// insert adds a block as the most recently used one, first evicting the
// least recently used block if the cache is full; a dirty victim is
// written back at time t. The eviction decision is identical to the
// reference push-then-evict list implementation: the victim is always the
// pre-insert LRU entry, never the newcomer.
func (c *Cache) insert(out []trace.Event, t trace.Time, id int64, b block) []trace.Event {
	if c.blocks.Len() == c.cfg.Blocks() {
		v := c.blocks.Oldest()
		if c.meta[v].dirty {
			c.stats.EvictionWrites++
			out = append(out, c.kernelWrite(t, c.blocks.Key(v), c.meta[v].fd))
		}
		c.blocks.Remove(v)
	}
	c.meta[c.blocks.Insert(id, hash(id))] = b
	return out
}

// kernelWrite is the flush daemon's disk write of one block.
func (c *Cache) kernelWrite(t trace.Time, id int64, fd trace.FD) trace.Event {
	return trace.Event{
		Time:   t,
		Pid:    KernelFlushPID,
		Kind:   trace.KindIO,
		Access: trace.AccessWrite,
		PC:     KernelFlushPC,
		FD:     fd,
		Block:  id,
		Size:   int32(c.cfg.BlockSize),
	}
}

// runFlushDaemon performs every flush wake scheduled strictly before t,
// appending a write for each block dirty for at least one interval. Blocks
// are visited in LRU-list order (MRU first), matching the reference
// implementation's list traversal. A wake at which no dirty block can
// come due flushes nothing, so after each wake the daemon jumps straight
// to the first wake at or after the oldest remaining dirty block comes
// due (or t, if that is sooner): an idle gap of any length costs one
// scan, and every flush keeps its wake-grid timestamp.
func (c *Cache) runFlushDaemon(out []trace.Event, t trace.Time) []trace.Event {
	for c.nextFlush < t {
		wake := c.nextFlush
		next := t // when the first block still dirty after this wake comes due
		for s := c.blocks.Newest(); s != 0; s = c.blocks.Older(s) {
			b := &c.meta[s]
			switch {
			case !b.dirty:
			case b.dirtied <= wake-c.cfg.FlushInterval: // not wake-dirtied, which can overflow
				b.dirty = false
				c.stats.FlushWrites++
				out = append(out, c.kernelWrite(wake, c.blocks.Key(s), b.fd))
			case b.dirtied < next-c.cfg.FlushInterval:
				next = b.dirtied + c.cfg.FlushInterval
			}
		}
		// next > wake, so this is at least one wake interval on.
		steps := (next-wake-1)/c.cfg.WakeInterval + 1
		if steps > (math.MaxInt64-wake)/c.cfg.WakeInterval {
			c.nextFlush = math.MaxInt64 // the next wake lies past the clock's range
		} else {
			c.nextFlush = wake + steps*c.cfg.WakeInterval
		}
	}
	return out
}
