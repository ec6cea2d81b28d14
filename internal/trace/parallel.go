package trace

import (
	"errors"
	"io"
	"runtime"
	"sync"
)

// Parallel out-of-core block decode.
//
// v2 blocks are self-contained (every delta chain restarts per block)
// and independently CRC-checksummed, so their expensive work — the CRC
// and the column decode — parallelizes. ParallelSource splits the
// sequential BlockDecoder's pipeline in three:
//
//	producer        one goroutine owns the file: it walks execution
//	                headers and raw block records (readBlockRaw — the
//	                cheap, strictly sequential byte-structure pass) and
//	                snapshots each block's header+payload into a pooled
//	                item. Under a predicate it follows the index-driven
//	                pushdown plan, seeking past skipped blocks so their
//	                bytes are never read.
//	workers         N goroutines verify each item's CRC and decode its
//	                columns straight into the item's event buffer
//	                (verifyBlockCRC + decodeBlockInto — the sequential
//	                fused path, so both accept and reject the same
//	                inputs with the same errors, and the single-worker
//	                pipeline pays no SoA-then-copy assembly pass).
//	consumer        the caller's goroutine. Delivery order is pinned by
//	                a second channel: the producer enqueues every item
//	                on the order channel in file order, workers race
//	                only on the work channel, and the consumer takes
//	                items from the order channel, waits on each
//	                item's done handshake and copies each block's
//	                events into the source's execution buffer until the
//	                execution's end item. Events therefore come out
//	                byte-for-byte in sequential-decoder order at any
//	                worker count, and the first error surfaced is the
//	                first error in file order.
//
// Pooled-value ownership across the goroutine boundary (the poolsafe
// contract, DESIGN.md §10/§15): items come from getParItem, an
// //pcaplint:owner-transfer accessor. The producer owns an item until
// it is enqueued on the order channel; from then on the consumer owns
// it, but must not touch the item's decode fields until it has
// received the done handshake, which transfers the worker's borrow
// back. The consumer returns items (with their snapshot and event
// buffers) to the item pool as it finishes with them; teardown drains
// the order channel so every in-flight item is released exactly once.
//
// Bounded memory: both channels have capacity workers*parQueueFactor,
// so at most O(workers) blocks are in flight regardless of file size —
// the out-of-core property of the sequential scan is preserved.

// parQueueFactor sizes the in-flight window per worker: enough to keep
// workers busy across the reorder barrier, small enough to bound
// memory at O(workers) blocks.
const parQueueFactor = 4

// parItem kinds.
const (
	parExec  = iota // an execution's start
	parBlock        // a raw block to decode
	parEnd          // the end of an execution's blocks
	parFail         // a producer-side read error (already in file order)
)

// parItem is one unit of the pipeline: an execution boundary, a block,
// or a terminal read error.
type parItem struct {
	kind int

	// Execution start (parExec).
	app  string
	exec int

	// Block (parBlock): the raw record and where it came from.
	h        blockHeader
	buf      []byte // header+payload snapshot, owned by the item
	hdrLen   int
	execIdx  int // d.exec at read time, for error messages
	blockIdx int // on-disk block ordinal, for error messages

	// Decode results, written by a worker and published to the consumer
	// by the done handshake. events is item-owned; its capacity recycles
	// with the item.
	events []Event
	err    error // also set directly by the producer for parFail

	// done is a one-slot handshake: the worker (or the producer, when a
	// block is cancelled before reaching a worker) sends exactly one
	// token when the item's decode fields are final; the consumer
	// receives it before reading them. The channel is reused with the
	// item, staying balanced across recycles.
	done chan struct{}
}

// parItemPool recycles pipeline items (and their payload snapshot
// capacity) across blocks and sources.
var parItemPool sync.Pool

// getParItem fetches a recycled pipeline item. The caller takes
// ownership and must return it with putParItem once done with the
// item's buffers.
//
//pcaplint:owner-transfer
func getParItem() *parItem {
	if it, ok := parItemPool.Get().(*parItem); ok {
		return it
	}
	return &parItem{done: make(chan struct{}, 1)}
}

// putParItem scrubs and returns an item to the pool.
func putParItem(it *parItem) {
	it.kind = parExec
	it.app = ""
	it.exec = 0
	it.h = blockHeader{}
	it.buf = it.buf[:0]
	it.hdrLen = 0
	it.execIdx, it.blockIdx = 0, 0
	it.events = it.events[:0]
	it.err = nil
	parItemPool.Put(it)
}

// ParallelSource decodes a v2 columnar stream with a pool of worker
// goroutines while preserving the sequential decoder's exact event
// order and error behavior — the drop-in replacement for BlockSource
// when decode throughput matters.
//
// The pipeline starts lazily at the first NextExec and is torn down by
// Reset, Close, or a decode error; a source that ended cleanly costs
// nothing to keep around. Like every Source, a ParallelSource is a
// single-goroutine iterator on the consumer side.
type ParallelSource struct {
	r       io.ReadSeeker
	workers int
	pred    Predicate

	started bool
	order   chan *parItem // every item, in file order (consumer side)
	work    chan *parItem // block items only, raced over by workers
	stop    chan struct{}
	wg      sync.WaitGroup

	events []Event // the current execution, kept across Reset
	app    string
	exec   int
	err    error
	ended  bool
	closed bool
}

// NewParallelSource returns a parallel decoder over r with the given
// worker count; workers < 1 selects GOMAXPROCS. The stream it yields is
// byte-identical to NewBlockSource(r) at any worker count.
func NewParallelSource(r io.ReadSeeker, workers int) *ParallelSource {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &ParallelSource{r: r, workers: workers}
}

// SetPredicate arms index-backed predicate pushdown for the producer
// (see BlockDecoder.SetPredicate): blocks whose index metadata cannot
// match p are never read from disk. Block selection is conservative —
// compose with FilterEvents for exact event-level semantics. Must be
// called before the first NextExec; it applies to every subsequent
// Reset too.
func (s *ParallelSource) SetPredicate(p Predicate) { s.pred = p }

// start spins up the pipeline.
func (s *ParallelSource) start() {
	s.started = true
	s.order = make(chan *parItem, s.workers*parQueueFactor)
	s.work = make(chan *parItem, s.workers*parQueueFactor)
	s.stop = make(chan struct{})
	s.wg.Add(1 + s.workers)
	for i := 0; i < s.workers; i++ {
		go s.runWorker()
	}
	go s.produce()
}

// produce is the reading goroutine: it walks the stream with a
// sequential BlockDecoder stopped short of CRC/column work and feeds
// the pipeline. It is the sole sender on (and closer of) both channels.
func (s *ParallelSource) produce() {
	defer s.wg.Done()
	defer close(s.order)
	defer close(s.work) // runs first: workers drain and exit, then the consumer sees order close
	d := NewBlockDecoder(s.r)
	if !s.pred.IsZero() {
		d.SetPredicate(s.pred)
	}
	for {
		app, exec, ok := d.NextExec()
		if !ok {
			if err := d.Err(); err != nil {
				s.emitFail(err)
			}
			return
		}
		it := getParItem()
		it.kind = parExec
		it.app, it.exec = app, exec
		if !s.send(it, false) {
			return
		}
		for {
			bi := getParItem()
			bi.kind = parBlock
			if !d.readBlockRaw(&bi.h) {
				putParItem(bi)
				break
			}
			bi.execIdx, bi.blockIdx = d.exec, d.blockIdx
			need := len(d.hdr) + len(d.payload)
			if cap(bi.buf) < need {
				bi.buf = make([]byte, need)
			}
			bi.buf = bi.buf[:need]
			bi.hdrLen = len(d.hdr)
			copy(bi.buf, d.hdr)
			copy(bi.buf[bi.hdrLen:], d.payload)
			d.finishBlock(&bi.h)
			if !s.send(bi, true) {
				return
			}
		}
		if err := d.Err(); err != nil {
			s.emitFail(err)
			return
		}
		end := getParItem()
		end.kind = parEnd
		if !s.send(end, false) {
			return
		}
	}
}

// send enqueues an item on the order channel and, for blocks, the work
// channel. false means the pipeline is stopping; the item has been
// released or parked appropriately.
func (s *ParallelSource) send(it *parItem, toWork bool) bool {
	select {
	case s.order <- it:
	case <-s.stop:
		putParItem(it) // never enqueued: the producer still owns it
		return false
	}
	if !toWork {
		return true
	}
	select {
	case s.work <- it:
	case <-s.stop:
		// Already on the order channel, so the teardown drain will wait
		// for the done handshake — complete it here, events left empty.
		it.done <- struct{}{}
		return false
	}
	return true
}

// emitFail forwards a producer-side read error, in file order.
func (s *ParallelSource) emitFail(err error) {
	it := getParItem()
	it.kind = parFail
	it.err = err
	select {
	case s.order <- it:
	case <-s.stop:
		putParItem(it)
	}
}

// runWorker decodes block items until the work channel closes. Each
// worker keeps one decoder shell so pid-dictionary scratch is reused
// without cross-worker sharing.
func (s *ParallelSource) runWorker() {
	defer s.wg.Done()
	var dec BlockDecoder
	for it := range s.work {
		decodeItem(&dec, it)
		it.done <- struct{}{}
	}
}

// decodeItem runs the sequential decoder's CRC and fused column passes
// over one snapshotted block, straight into the item's event buffer.
func decodeItem(dec *BlockDecoder, it *parItem) {
	dec.err = nil
	dec.inExec = true
	dec.exec, dec.blockIdx = it.execIdx, it.blockIdx
	dec.hdr = it.buf[:it.hdrLen]
	dec.payload = it.buf[it.hdrLen:]
	if !dec.verifyBlockCRC(it.h.storedCRC) {
		it.err = dec.err
		return
	}
	if cap(it.events) < it.h.events {
		it.events = make([]Event, it.h.events)
	}
	it.events = it.events[:it.h.events]
	if !dec.decodeBlockInto(it.events, &it.h) {
		it.err = dec.err
		it.events = it.events[:0]
	}
}

// fail records the stream's first error and tears the pipeline down.
func (s *ParallelSource) fail(err error) {
	s.err = err
	s.teardown()
}

// NextExec implements Source: it collects the execution's decoded
// blocks, in file order, up to the execution's end item. A failed block
// fails the execution whole, with the sequential decoder's error.
func (s *ParallelSource) NextExec() (string, int, bool) {
	s.events = s.events[:0]
	if s.err != nil || s.ended || s.closed {
		return "", 0, false
	}
	if !s.started {
		s.start()
	}
	for {
		it, ok := <-s.order
		if !ok {
			s.ended = true
			s.wg.Wait() // pipeline goroutines have closed both channels
			return "", 0, false
		}
		kind := it.kind
		switch kind {
		case parExec:
			s.app, s.exec = it.app, it.exec
		case parBlock:
			<-it.done // the worker's writes to it.err and it.events happen before
			if it.err == nil {
				s.events = append(s.events, it.events...)
			}
		}
		err := it.err
		putParItem(it)
		if err != nil {
			s.fail(err)
			return "", 0, false
		}
		if kind == parEnd {
			return s.app, s.exec, true
		}
	}
}

// ExecEvents implements Source.
func (s *ParallelSource) ExecEvents() []Event { return s.events }

// Err implements Source.
func (s *ParallelSource) Err() error { return s.err }

// teardown stops the pipeline and releases every in-flight pooled item.
// Safe to call on a finished or never-started pipeline.
func (s *ParallelSource) teardown() {
	if !s.started {
		return
	}
	close(s.stop)
	for it := range s.order {
		if it.kind == parBlock {
			<-it.done
		}
		putParItem(it)
	}
	s.wg.Wait()
	s.started = false
	s.order, s.work, s.stop = nil, nil, nil
}

// Reset implements Source: the pipeline is torn down and lazily rebuilt
// from the start of the stream by the next NextExec.
func (s *ParallelSource) Reset() error {
	if s.closed {
		return errors.New("trace: Reset on closed ParallelSource")
	}
	s.teardown()
	s.err = nil
	s.ended = false
	s.app, s.exec = "", 0
	_, err := s.r.Seek(0, io.SeekStart)
	return err
}

// Close stops the pipeline's goroutines and releases its pooled
// resources. The source is unusable afterwards.
func (s *ParallelSource) Close() error {
	if !s.closed {
		s.teardown()
		s.closed = true
	}
	return nil
}
