package trace

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// batchBlocksPerWorker sizes a parallel batch: enough blocks per
// goroutine to even out their decode times, few enough to bound memory
// at O(workers) blocks beyond one execution.
const batchBlocksPerWorker = 4

// BlockSource adapts a BlockDecoder to the Source contract: NextExec
// decodes the whole execution straight into one buffer the source keeps
// across executions and Reset.
//
// With one worker, the default, NextExec decodes block by block. With
// more (SetWorkers) it decodes in fork-join batches. v2 blocks are
// self-contained (every delta chain restarts per block) and carry their
// own CRC, so only the byte structure must be walked in order. When its
// batch is spent, NextExec reads the raw records of the next whole
// executions on the caller's goroutine until the batch holds
// batchBlocksPerWorker blocks per worker. It then verifies and decodes
// every block on up to workers goroutines, each block straight into its
// slot of one event arena, and joins them before it returns: no
// goroutine outlives the call, so there is nothing to close. A batch
// holds O(max(batchBlocksPerWorker × workers blocks, one execution))
// bytes and events.
//
// The stream, and the first error in it, are the same at any worker
// count: a batch fails at its first failed block in file order, so an
// earlier block's decode error is reported before a later read error,
// and the executions before it are served first.
type BlockSource struct {
	d       *BlockDecoder
	events  []Event
	err     error
	workers int

	// The batch (workers > 1).
	raw    []byte         // each block's payload followed by its header bytes
	blocks []batchBlock   // in file order
	arena  []Event        // every block's events, in file order
	execs  []batchExec    // the whole executions before the batch's end
	next   int            // the next execution of execs to serve
	end    error          // what follows execs: a failure, or nil
	shells []BlockDecoder // one decoder's scratch per goroutine
}

// batchBlock is one raw block of a batch and its decode outcome.
type batchBlock struct {
	h         blockHeader
	off       int // payload offset in raw; hdrLen header bytes follow it
	hdrLen    int
	exec, idx int // execution and on-disk block ordinal, for errors
	at        int // the first event's offset in the arena
	err       error
}

// batchExec is one execution of a batch: its events are arena[from:to].
type batchExec struct {
	app      string
	exec     int
	from, to int
}

// NewBlockSource returns a Source over the v2 columnar stream on r. If r
// is also an io.Seeker, the source supports Reset.
func NewBlockSource(r io.Reader) *BlockSource {
	return &BlockSource{d: NewBlockDecoder(r)}
}

// SetPredicate arms index-backed predicate pushdown on the underlying
// decoder (see BlockDecoder.SetPredicate); it reports whether pushdown
// is active. Must be called before the first NextExec.
func (s *BlockSource) SetPredicate(p Predicate) bool { return s.d.SetPredicate(p) }

// SetWorkers sets how many goroutines decode blocks: n > 1 selects
// batched parallel decode, n < 0 one goroutine per GOMAXPROCS, and 0 or
// 1 sequential decode. Must be called before the first NextExec.
func (s *BlockSource) SetWorkers(n int) {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.workers = n
}

// NextExec implements Source. A corrupt block fails the execution whole.
func (s *BlockSource) NextExec() (string, int, bool) {
	if s.workers > 1 {
		return s.nextBatched()
	}
	s.events = s.events[:0]
	app, exec, ok := s.d.NextExec()
	for more := ok; more; {
		s.events, more = s.d.appendBlock(s.events)
	}
	if !ok || s.d.Err() != nil {
		s.err = s.d.Err()
		return "", 0, false
	}
	return app, exec, true
}

// nextBatched serves the next execution of the batch, reading and
// decoding a new batch when this one is spent.
func (s *BlockSource) nextBatched() (string, int, bool) {
	if s.next == len(s.execs) && s.end == nil {
		s.fill()
	}
	if s.next == len(s.execs) {
		s.events = s.arena[:0]
		s.err = s.end
		return "", 0, false
	}
	e := &s.execs[s.next]
	s.next++
	s.events = s.arena[e.from:e.to]
	return e.app, e.exec, true
}

// fill reads the raw blocks of the next whole executions, decodes them,
// and keeps the executions before the batch's first failure.
func (s *BlockSource) fill() {
	d := s.d
	s.raw, s.blocks, s.execs, s.next = s.raw[:0], s.blocks[:0], s.execs[:0], 0
	events := 0
	for len(s.blocks) < batchBlocksPerWorker*s.workers {
		app, exec, ok := d.NextExec()
		if !ok {
			break
		}
		from := events
		for {
			var h blockHeader
			off := len(s.raw)
			if s.raw, ok = d.readBlockRaw(&h, s.raw); !ok {
				break
			}
			s.raw = append(s.raw, d.hdr...)
			s.blocks = append(s.blocks, batchBlock{h: h, off: off, hdrLen: len(d.hdr),
				exec: d.exec, idx: d.blockIdx, at: events})
			events += h.events
			d.finishBlock(&h)
		}
		if d.err != nil {
			break
		}
		s.execs = append(s.execs, batchExec{app: app, exec: exec, from: from, to: events})
	}
	s.end = d.err
	if cap(s.arena) < events {
		s.arena = make([]Event, events, events+events/4)
	}
	s.arena = s.arena[:events]
	s.decode()
	for i := range s.blocks {
		if b := &s.blocks[i]; b.err != nil {
			for len(s.execs) > 0 && s.execs[len(s.execs)-1].to > b.at {
				s.execs = s.execs[:len(s.execs)-1]
			}
			s.end = b.err
			return
		}
	}
}

// decode verifies and decodes every block of the batch on
// min(workers, blocks) goroutines, the caller and helpers claiming
// blocks from a shared cursor, and returns once all have finished.
func (s *BlockSource) decode() {
	if s.shells == nil {
		s.shells = make([]BlockDecoder, s.workers)
	}
	var cursor atomic.Int64 // the next block to claim
	var wg sync.WaitGroup
	for g := 1; g < min(s.workers, len(s.blocks)); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.decodeClaimed(&s.shells[g], &cursor)
		}()
	}
	s.decodeClaimed(&s.shells[0], &cursor)
	wg.Wait()
}

// decodeClaimed claims blocks until none is left, running the sequential
// decoder's CRC check and column decode on each with dec's scratch.
func (s *BlockSource) decodeClaimed(dec *BlockDecoder, cursor *atomic.Int64) {
	for {
		i := int(cursor.Add(1)) - 1
		if i >= len(s.blocks) {
			return
		}
		b := &s.blocks[i]
		dec.err = nil
		dec.exec, dec.blockIdx = b.exec, b.idx
		end := b.off + b.h.total
		dec.payload, dec.hdr = s.raw[b.off:end], s.raw[end:end+b.hdrLen]
		if !dec.verifyBlockCRC(b.h.storedCRC) || !dec.decodeBlockInto(s.arena[b.at:b.at+b.h.events], &b.h) {
			b.err = dec.err
		}
	}
}

// ExecEvents implements Source.
func (s *BlockSource) ExecEvents() []Event { return s.events }

// Err implements Source.
func (s *BlockSource) Err() error { return s.err }

// Reset implements Source.
func (s *BlockSource) Reset() error {
	s.execs, s.next, s.end, s.err = s.execs[:0], 0, nil, nil
	return s.d.Reset()
}
