package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"
)

// Columnar trace container ("tracev2")
//
// v2 is the binary trace format: a block-structured struct-of-arrays
// layout built for batched decode. Executions are split into fixed-size
// event blocks, each block storing its events as per-field columns with
// encodings matched to the field's statistics. Blocks are independently
// decodable (every block header carries the base timestamp and the first
// value of each delta chain is absolute within the block) and
// integrity-checked — a CRC32 covers the block header and all column
// payloads, so a flipped bit is reported as an error naming the block,
// never as silently wrong events.
//
// Execution layout:
//
//	magic   "PCT2" (4 bytes)
//	header  region covered by the header CRC:
//	    version uint16 (little endian) = 1
//	    app     uvarint length + bytes
//	    exec    uvarint
//	    count   uvarint (total events in the execution)
//	crc32   uint32 (little endian, IEEE) of the header region
//	blocks  until count events have been delivered
//
// Block layout:
//
//	magic   "PCB2" (4 bytes)
//	header  region covered by the block CRC:
//	    events uvarint (1..maxBlockEvents)
//	    ios    uvarint (number of KindIO events)
//	    forks  uvarint (number of KindFork events)
//	    base   uvarint (absolute time of the first event, µs)
//	    ncols  byte    = 9
//	    len[9] uvarint (encoded byte length of each column)
//	crc32   uint32 (little endian, IEEE) of header region + payload
//	payload concatenated column encodings, in column order
//
// Columns and their encodings (time/pid/kind have one entry per event;
// access/pc/fd/block/size one per KindIO event; child one per KindFork):
//
//	time    uvarint deltas from the previous event (prev starts at base)
//	pid     dictionary + run length: uvarint dict size, dict values as
//	        varints, then (uvarint dict index, uvarint run) pairs
//	kind    run length: (byte kind, uvarint run) pairs
//	access  run length: (byte access, uvarint run) pairs
//	pc      varint deltas from the previous I/O's PC (prev starts at 0)
//	fd      varint deltas from the previous I/O's FD (prev starts at 0)
//	block   varint deltas from the previous I/O's block (prev starts at 0)
//	size    run length: (varint size, uvarint run) pairs
//	child   varints, one per fork
//
// Timestamps and PCs are highly local (think times accumulate in small
// steps; I/O bursts replay short PC loops), so their deltas are mostly
// one byte; pids, kinds, accesses and sizes come in long runs, so their
// run-length columns cost near zero per event. There are no per-event
// pid/kind bytes and no absolute PCs, and decode is fast: whole columns
// are parsed in tight loops over an in-memory payload instead of
// per-field reads through a bufio.Reader.

const (
	blockFileMagic = "PCT2"
	blockMagic     = "PCB2"
	blockVersion   = 1

	// DefaultBlockEvents is the number of events per block written by
	// BlockEncoder. Bigger blocks amortize header cost and lengthen RLE
	// runs; smaller blocks bound the working set of a batched consumer.
	DefaultBlockEvents = 4096

	// maxBlockEvents bounds the per-block event count a decoder accepts,
	// so corrupt headers cannot demand absurd allocations.
	maxBlockEvents = 1 << 20
	// maxColumnBytes bounds a single column's declared encoded size.
	maxColumnBytes = 1 << 28
)

// Column indices of the v2 block layout, in payload order.
const (
	colTime = iota
	colPid
	colKind
	colAccess
	colPC
	colFD
	colBlock
	colSize
	colChild
	// NumColumns is the number of per-block columns in the v2 layout.
	NumColumns
)

var columnNames = [NumColumns]string{
	"time", "pid", "kind", "access", "pc", "fd", "block", "size", "child",
}

// ColumnName returns the name of column i of the v2 block layout.
func ColumnName(i int) string { return columnNames[i] }

// BlockEncoder writes one execution in the columnar v2 format, one event
// per Write call, so producers stream events straight to disk instead of
// materializing a Trace first. The event count is declared up front;
// I/O errors are sticky in the buffered writer and surface at Close.
// Events are buffered and flushed as full blocks of BlockEvents events
// (plus one final partial block).
type BlockEncoder struct {
	bw      *bufio.Writer
	count   int
	written int
	prev    Time

	blockEvents int
	buf         []Event
	cols        [NumColumns][]byte
	hdr         []byte
	pidDict     []PID

	ib         *IndexBuilder // optional: collects per-block index metadata
	headerWire int           // bytes the execution header occupies on the wire
	app        string        // execution identity, retained for the index
	exec       int
}

// NewBlockEncoder writes the v2 execution header for an execution of
// count events and returns an encoder for its event stream.
func NewBlockEncoder(w io.Writer, app string, exec int, count int) (*BlockEncoder, error) {
	if count < 0 {
		return nil, fmt.Errorf("trace: negative event count %d", count)
	}
	if exec < 0 {
		return nil, fmt.Errorf("trace: negative execution index %d", exec)
	}
	if len(app) > 1<<20 {
		return nil, fmt.Errorf("trace: app name too long (%d bytes)", len(app))
	}
	enc := &BlockEncoder{count: count, blockEvents: DefaultBlockEvents, app: app, exec: exec}
	hdr := enc.hdr[:0]
	hdr = append(hdr, byte(blockVersion), byte(blockVersion>>8)) // uint16 LE
	hdr = binary.AppendUvarint(hdr, uint64(len(app)))
	hdr = append(hdr, app...)
	hdr = binary.AppendUvarint(hdr, uint64(exec))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	enc.hdr = hdr
	enc.headerWire = len(blockFileMagic) + len(hdr) + 4
	enc.bw = bufio.NewWriter(w)
	enc.bw.WriteString(blockFileMagic) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	enc.bw.Write(hdr)                  //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	writeCRC32(enc.bw, crc32.ChecksumIEEE(hdr))
	return enc, nil
}

// SetIndex attaches an IndexBuilder that collects per-block metadata
// (file offsets, event populations, time range, pid set, PC range) while
// the encoder writes. The builder's running offset must equal the file
// offset this encoder's execution header was written at; after the final
// encoder's Close, IndexBuilder.WriteFooter appends the seekable "PCI2"
// footer. SetIndex must be called before the first Write.
func (enc *BlockEncoder) SetIndex(ib *IndexBuilder) error {
	if enc.written > 0 {
		return fmt.Errorf("trace: SetIndex after Write")
	}
	enc.ib = ib
	ib.beginExec(enc.app, enc.exec, uint64(enc.count), enc.headerWire)
	return nil
}

// SetBlockEvents overrides the events-per-block target (mainly for tests
// and size/latency tuning). It must be called before the first Write.
func (enc *BlockEncoder) SetBlockEvents(n int) error {
	if enc.written > 0 {
		return fmt.Errorf("trace: SetBlockEvents after Write")
	}
	if n < 1 || n > maxBlockEvents {
		return fmt.Errorf("trace: block size %d out of range [1, %d]", n, maxBlockEvents)
	}
	enc.blockEvents = n
	return nil
}

// Write encodes the next event. Events must arrive in non-decreasing time
// order and must not exceed the declared count.
func (enc *BlockEncoder) Write(e Event) error {
	i := enc.written
	if i >= enc.count {
		return fmt.Errorf("trace: event %d exceeds declared count %d", i, enc.count)
	}
	if e.Time < enc.prev {
		return fmt.Errorf("trace: event %d out of order; call SortStable before encoding", i)
	}
	if e.Kind > KindExit {
		return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
	}
	if e.Kind == KindIO && e.Access > AccessClose {
		return fmt.Errorf("trace: event %d has unknown access %d", i, e.Access)
	}
	enc.prev = e.Time
	enc.buf = append(enc.buf, e)
	enc.written++
	if len(enc.buf) >= enc.blockEvents {
		return enc.flush()
	}
	return nil
}

// Close flushes the final block, verifying every declared event was
// written.
func (enc *BlockEncoder) Close() error {
	if enc.written != enc.count {
		return fmt.Errorf("trace: wrote %d of %d declared events", enc.written, enc.count)
	}
	if err := enc.flush(); err != nil {
		return err
	}
	return enc.bw.Flush()
}

// flush encodes the buffered events as one block.
func (enc *BlockEncoder) flush() error {
	n := len(enc.buf)
	if n == 0 {
		return nil
	}
	for i := range enc.cols {
		enc.cols[i] = enc.cols[i][:0]
	}
	buf := enc.buf
	base := buf[0].Time

	// time: uvarint deltas; pid: dictionary + RLE; kind: RLE. One pass
	// builds time and counts the per-kind populations.
	nIO, nFork := 0, 0
	prev := base
	tcol := enc.cols[colTime]
	for i := range buf {
		tcol = binary.AppendUvarint(tcol, uint64(buf[i].Time-prev))
		prev = buf[i].Time
		switch buf[i].Kind {
		case KindIO:
			nIO++
		case KindFork:
			nFork++
		}
	}
	enc.cols[colTime] = tcol

	dict := enc.pidDict[:0]
	for i := range buf {
		if pidIndex(dict, buf[i].Pid) < 0 {
			dict = append(dict, buf[i].Pid)
		}
	}
	enc.pidDict = dict
	pcol := enc.cols[colPid]
	pcol = binary.AppendUvarint(pcol, uint64(len(dict)))
	for _, p := range dict {
		pcol = binary.AppendVarint(pcol, int64(p))
	}
	for i := 0; i < n; {
		j := i + 1
		for j < n && buf[j].Pid == buf[i].Pid {
			j++
		}
		pcol = binary.AppendUvarint(pcol, uint64(pidIndex(dict, buf[i].Pid)))
		pcol = binary.AppendUvarint(pcol, uint64(j-i))
		i = j
	}
	enc.cols[colPid] = pcol

	kcol := enc.cols[colKind]
	for i := 0; i < n; {
		j := i + 1
		for j < n && buf[j].Kind == buf[i].Kind {
			j++
		}
		kcol = append(kcol, byte(buf[i].Kind))
		kcol = binary.AppendUvarint(kcol, uint64(j-i))
		i = j
	}
	enc.cols[colKind] = kcol

	// I/O columns: access RLE, pc/fd/block varint delta chains, size RLE.
	// Delta chains restart at zero each block so blocks decode alone.
	acol, pccol := enc.cols[colAccess], enc.cols[colPC]
	fcol, bcol, scol := enc.cols[colFD], enc.cols[colBlock], enc.cols[colSize]
	var prevPC, prevFD, prevBlock int64
	var runAcc Access
	var runSize int32
	runAccN, runSizeN := 0, 0
	flushAcc := func() {
		if runAccN > 0 {
			acol = append(acol, byte(runAcc))
			acol = binary.AppendUvarint(acol, uint64(runAccN))
		}
	}
	flushSize := func() {
		if runSizeN > 0 {
			scol = binary.AppendVarint(scol, int64(runSize))
			scol = binary.AppendUvarint(scol, uint64(runSizeN))
		}
	}
	ccol := enc.cols[colChild]
	for i := range buf {
		e := &buf[i]
		switch e.Kind {
		case KindFork:
			ccol = binary.AppendVarint(ccol, int64(e.Child))
		case KindIO:
			if runAccN > 0 && e.Access == runAcc {
				runAccN++
			} else {
				flushAcc()
				runAcc, runAccN = e.Access, 1
			}
			if runSizeN > 0 && e.Size == runSize {
				runSizeN++
			} else {
				flushSize()
				runSize, runSizeN = e.Size, 1
			}
			pccol = binary.AppendVarint(pccol, int64(e.PC)-prevPC)
			prevPC = int64(e.PC)
			fcol = binary.AppendVarint(fcol, int64(e.FD)-prevFD)
			prevFD = int64(e.FD)
			bcol = binary.AppendVarint(bcol, e.Block-prevBlock)
			prevBlock = e.Block
		}
	}
	flushAcc()
	flushSize()
	enc.cols[colAccess], enc.cols[colPC] = acol, pccol
	enc.cols[colFD], enc.cols[colBlock], enc.cols[colSize] = fcol, bcol, scol
	enc.cols[colChild] = ccol

	// Header + CRC over header and payload.
	hdr := enc.hdr[:0]
	hdr = binary.AppendUvarint(hdr, uint64(n))
	hdr = binary.AppendUvarint(hdr, uint64(nIO))
	hdr = binary.AppendUvarint(hdr, uint64(nFork))
	hdr = binary.AppendUvarint(hdr, uint64(base))
	hdr = append(hdr, byte(NumColumns))
	for i := range enc.cols {
		hdr = binary.AppendUvarint(hdr, uint64(len(enc.cols[i])))
	}
	enc.hdr = hdr
	crc := crc32.ChecksumIEEE(hdr)
	for i := range enc.cols {
		crc = crc32.Update(crc, crc32.IEEETable, enc.cols[i])
	}
	enc.bw.WriteString(blockMagic) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	enc.bw.Write(hdr)              //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
	writeCRC32(enc.bw, crc)
	total := 0
	for i := range enc.cols {
		enc.bw.Write(enc.cols[i]) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at Close's Flush
		total += len(enc.cols[i])
	}
	if enc.ib != nil {
		enc.ib.addBlock(enc.blockMeta(n, nIO, nFork, base),
			len(blockMagic)+len(hdr)+4+total)
	}
	enc.buf = enc.buf[:0]
	return nil
}

// blockMeta summarizes the buffered block for the index footer. The
// stats are exact over the block's events — MinTime/MaxTime span the
// block, Pids is the sorted set of every Pid field, PCMin/PCMax bound
// the I/O events' program counters — which is what makes index-driven
// block skipping sound (Predicate.MatchMeta is conservative over them).
func (enc *BlockEncoder) blockMeta(n, nIO, nFork int, base Time) BlockMeta {
	buf := enc.buf
	m := BlockMeta{
		Events:  n,
		IOs:     nIO,
		Forks:   nFork,
		MinTime: base,
		MaxTime: buf[n-1].Time,
	}
	m.Pids = append(m.Pids, enc.pidDict...) // flush already deduplicated them
	sort.Slice(m.Pids, func(i, j int) bool { return m.Pids[i] < m.Pids[j] })
	first := true
	for i := range buf {
		if buf[i].Kind != KindIO {
			continue
		}
		pc := buf[i].PC
		if first || pc < m.PCMin {
			m.PCMin = pc
		}
		if first || pc > m.PCMax {
			m.PCMax = pc
		}
		first = false
	}
	return m
}

func pidIndex(dict []PID, p PID) int {
	for i := range dict {
		if dict[i] == p {
			return i
		}
	}
	return -1
}

func writeCRC32(w *bufio.Writer, crc uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], crc)
	w.Write(b[:]) //pcaplint:ignore errcheck-lite bufio errors are sticky and surface at the encoder's Flush
}

// WriteColumnar encodes the trace to w in the columnar v2 format.
func WriteColumnar(w io.Writer, t *Trace) error {
	enc, err := NewBlockEncoder(w, t.App, t.Execution, len(t.Events))
	if err != nil {
		return err
	}
	for _, e := range t.Events {
		if err := enc.Write(e); err != nil {
			return err
		}
	}
	return enc.Close()
}

// growSlice returns s with length n, reusing capacity when possible.
func growSlice[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// BlockStats describes the last block a BlockDecoder decoded — the raw
// material for traceinspect's per-block report.
type BlockStats struct {
	// Index is the zero-based block ordinal within its execution.
	Index int
	// Events, IOs and Forks are the block's event populations.
	Events, IOs, Forks int
	// HeaderBytes and PayloadBytes are the encoded sizes (the block magic
	// and CRC add another 8 bytes on the wire).
	HeaderBytes, PayloadBytes int
	// ColBytes is the encoded size of each column, by column index.
	ColBytes [NumColumns]int
}

// RawColBytes returns the in-memory (decoded struct-of-arrays) size of
// column i, the denominator of a column's compression ratio.
func (bs BlockStats) RawColBytes(i int) int {
	switch i {
	case colTime:
		return 8 * bs.Events
	case colPid:
		return 4 * bs.Events
	case colKind:
		return 1 * bs.Events
	case colAccess:
		return 1 * bs.IOs
	case colPC:
		return 4 * bs.IOs
	case colFD:
		return 4 * bs.IOs
	case colBlock:
		return 8 * bs.IOs
	case colSize:
		return 4 * bs.IOs
	case colChild:
		return 4 * bs.Forks
	}
	return 0
}

// BlockDecoder is a streaming reader of the columnar v2 format. It
// decodes one whole block at a time: NextExec / NextBlock / Err / Reset
// mirror the Source protocol at block granularity, for block-aware
// consumers; BlockSource adapts it to the Source contract.
type BlockDecoder struct {
	r     io.Reader
	seek  io.Seeker
	br    *bufio.Reader
	err   error
	ended bool

	app       string
	nameBuf   []byte // app name bytes backing the reused app string
	exec      int
	count     uint64
	remaining uint64
	blockIdx  int
	inExec    bool

	hdr     []byte  // scratch: CRC-covered header bytes of the record being read
	payload []byte  // scratch: current block's column payload
	scratch [8]byte // fixed-width read scratch (kept on the decoder so it never escapes)
	block   []Event // NextBlock's decoded events, kept across Reset
	stats   BlockStats
	pidDict []PID

	// Predicate pushdown (SetPredicate): when plan is non-nil the decoder
	// walks only the index-selected blocks, seeking past the rest.
	plan       []planExec
	planPos    int         // next plan execution
	planCur    planExec    // plan entry being decoded, for header verification
	planBlocks []planBlock // kept blocks of the current execution
	planNext   int         // next kept block within planBlocks
}

// planExec is one execution of a pushdown plan: the file offset of its
// header, the identity the index claims for it (verified against the
// decoded header — a stale or transplanted footer must fail loudly, not
// mis-skip), and the blocks whose index metadata could match the
// predicate.
type planExec struct {
	off    int64
	app    string
	exec   int
	events uint64
	blocks []planBlock
}

// planBlock locates one kept block: its file offset and its ordinal
// within the execution (so error messages still name the on-disk block).
type planBlock struct {
	off     int64
	ordinal int
}

// NewBlockDecoder returns a streaming v2 decoder over r. If r is also an
// io.Seeker, the decoder supports Reset.
func NewBlockDecoder(r io.Reader) *BlockDecoder {
	seek, _ := r.(io.Seeker)
	return &BlockDecoder{r: r, seek: seek, br: bufio.NewReader(r)}
}

// Count returns the number of events the current execution's header
// declared.
func (d *BlockDecoder) Count() uint64 { return d.count }

// BlockStats returns statistics of the most recently decoded block.
func (d *BlockDecoder) BlockStats() BlockStats { return d.stats }

// seekTo repositions the underlying reader at an absolute file offset,
// discarding buffered read-ahead.
func (d *BlockDecoder) seekTo(off int64) bool {
	if d.seek == nil {
		d.fail("pushdown requires a seekable input")
		return false
	}
	if _, err := d.seek.Seek(off, io.SeekStart); err != nil {
		d.fail("%v", err)
		return false
	}
	d.br.Reset(d.r)
	return true
}

// SetPredicate arms index-backed predicate pushdown: when the input is
// seekable and carries a valid "PCI2" footer, blocks whose index metadata
// cannot match p are skipped with seeks — their bytes are never read.
// Surviving blocks still carry events the predicate rejects (block stats
// are conservative), so exact filtering composes FilterEvents on top.
//
// It returns whether pushdown is active. A missing, truncated or corrupt
// footer deactivates pushdown and the decoder falls back to the full
// sequential scan, preserving plain-decoder behavior byte for byte. It
// must be called before the first NextExec.
func (d *BlockDecoder) SetPredicate(p Predicate) bool {
	if p.IsZero() || d.seek == nil {
		return false
	}
	rs, ok := d.r.(io.ReadSeeker)
	if !ok {
		return false
	}
	idx, err := ReadIndex(rs)
	active := err == nil && idx != nil
	if active {
		plan := make([]planExec, 0, len(idx.Execs))
		for _, em := range idx.Execs {
			pe := planExec{off: em.Offset, app: em.App, exec: em.Exec, events: em.Events}
			for bi := range em.Blocks {
				bm := &em.Blocks[bi]
				if p.MatchMeta(bm) {
					pe.blocks = append(pe.blocks, planBlock{off: bm.Offset, ordinal: bi})
				}
			}
			plan = append(plan, pe)
		}
		d.plan = plan
		d.planPos = 0
	}
	// ReadIndex moved the reader; restore the stream start either way.
	if !d.seekTo(0) {
		return false
	}
	return active
}

// fail records a sticky decode error.
func (d *BlockDecoder) fail(format string, args ...any) {
	d.err = fmt.Errorf("%w: %s", ErrBadFormat, fmt.Sprintf(format, args...))
	d.inExec = false
}

// failBlock records a sticky decode error naming the current block.
func (d *BlockDecoder) failBlock(format string, args ...any) {
	d.err = fmt.Errorf("%w: execution %d block %d: %s",
		ErrBadFormat, d.exec, d.blockIdx, fmt.Sprintf(format, args...))
	d.inExec = false
}

// NextExec advances to the next execution's header, draining any
// undecoded blocks of the current one first. ok=false with a nil Err
// means the stream ended cleanly at an execution boundary.
func (d *BlockDecoder) NextExec() (string, int, bool) {
	if d.err != nil || d.ended {
		return "", 0, false
	}
	if d.plan != nil {
		// Pushdown: seek straight to the next execution's header instead
		// of decoding through the rest of the current one.
		if d.planPos >= len(d.plan) {
			d.ended = true
			return "", 0, false
		}
		pe := d.plan[d.planPos]
		d.planPos++
		d.planCur = pe
		d.inExec = false
		d.planBlocks, d.planNext = pe.blocks, 0
		if !d.seekTo(pe.off) {
			return "", 0, false
		}
	}
	for d.inExec { // discard the rest of the current execution
		if _, ok := d.NextBlock(); !ok {
			if d.err != nil {
				return "", 0, false
			}
		}
	}
	magic := d.scratch[:4]
	for {
		if _, err := io.ReadFull(d.br, magic); err != nil {
			if err == io.EOF {
				d.ended = true // clean boundary: no more executions
			} else {
				d.fail("%v", err)
			}
			return "", 0, false
		}
		if string(magic) == blockFileMagic {
			break
		}
		if string(magic) == indexMagic {
			// An index footer trails each indexed write. Skip it by its
			// length field and keep scanning: concatenated trace files
			// interleave footers with executions, and a footer at EOF
			// reads as a clean end of stream on the next iteration.
			if _, err := io.ReadFull(d.br, d.scratch[:4]); err != nil {
				d.fail("truncated index footer: %v", err)
				return "", 0, false
			}
			skip := int64(binary.LittleEndian.Uint32(d.scratch[:4]))
			if _, err := io.CopyN(io.Discard, d.br, skip); err != nil {
				d.fail("truncated index footer: %v", err)
				return "", 0, false
			}
			continue
		}
		d.fail("bad magic %q", magic)
		return "", 0, false
	}
	d.hdr = d.hdr[:0]
	if !d.readFullTee(d.scratch[:2]) {
		return "", 0, false
	}
	if v := binary.LittleEndian.Uint16(d.scratch[:2]); v != blockVersion {
		d.fail("unsupported version %d", v)
		return "", 0, false
	}
	nameLen, ok := d.readUvarintTee()
	if !ok {
		return "", 0, false
	}
	if nameLen > 1<<20 {
		d.fail("app name too long (%d)", nameLen)
		return "", 0, false
	}
	nameStart := len(d.hdr)
	if cap(d.hdr) < nameStart+int(nameLen) {
		grown := make([]byte, nameStart, nameStart+int(nameLen))
		copy(grown, d.hdr)
		d.hdr = grown
	}
	d.hdr = d.hdr[:nameStart+int(nameLen)]
	if _, err := io.ReadFull(d.br, d.hdr[nameStart:]); err != nil {
		d.fail("%v", err)
		return "", 0, false
	}
	exec, ok := d.readUvarintTee()
	if !ok {
		return "", 0, false
	}
	count, ok := d.readUvarintTee()
	if !ok {
		return "", 0, false
	}
	if !d.checkCRC(crc32.ChecksumIEEE(d.hdr), "execution header") {
		return "", 0, false
	}
	if name := d.hdr[nameStart : nameStart+int(nameLen)]; !bytes.Equal(d.nameBuf, name) {
		d.nameBuf = append(d.nameBuf[:0], name...)
		d.app = string(name)
	}
	d.exec = int(exec)
	d.count = count
	d.remaining = count
	d.blockIdx = 0
	d.inExec = count > 0
	if d.plan != nil {
		// Pushdown trusted the footer for the seek; the header is the
		// ground truth. A mismatch means the footer describes some other
		// stream (stale, transplanted, or a concatenation artifact) —
		// skipping by it could silently drop or misattribute events.
		pe := d.planCur
		if d.app != pe.app || d.exec != pe.exec || d.count != pe.events {
			d.fail("index footer: execution at offset %d is %s/%d (%d events), index says %s/%d (%d events)",
				pe.off, d.app, d.exec, d.count, pe.app, pe.exec, pe.events)
			return "", 0, false
		}
	}
	return d.app, d.exec, true
}

// NextBlock decodes the next block of the current execution into a
// buffer the decoder owns. ok=false means the execution's blocks are
// exhausted or the decoder failed (see Err). The returned events are
// borrowed: they are valid until the next NextBlock, NextExec or Reset
// call, so a consumer must process (or copy) them before pulling on.
func (d *BlockDecoder) NextBlock() ([]Event, bool) {
	block, ok := d.appendBlock(d.block[:0])
	d.block = block
	return block, ok
}

// blockHeader carries one block's validated header between readBlock and
// decodeBlockInto.
type blockHeader struct {
	events, ios, forks int
	base               Time
	colLen             [NumColumns]int
	total              int
	storedCRC          uint32
}

// readBlock reads, validates and CRC-checks the next block, leaving its
// payload in d.payload. On any failure the decoder's error names the
// block index.
func (d *BlockDecoder) readBlock(h *blockHeader) bool {
	var ok bool
	d.payload, ok = d.readBlockRaw(h, d.payload[:0])
	return ok && d.verifyBlockCRC(h.storedCRC)
}

// readBlockRaw reads and structurally validates the next block's magic,
// header and payload without verifying the CRC (h.storedCRC carries it
// for a later verifyBlockCRC — batched parallel decode runs the CRC and
// column decode off the reading goroutine). The payload is appended to
// buf, which is returned extended; the header's CRC-covered bytes are
// left in d.hdr. Under a pushdown plan it first seeks to the next kept
// block, ending the execution when the plan is exhausted.
func (d *BlockDecoder) readBlockRaw(h *blockHeader, buf []byte) ([]byte, bool) {
	if d.err != nil || !d.inExec {
		return buf, false
	}
	if d.plan != nil {
		if d.planNext >= len(d.planBlocks) {
			d.inExec = false
			return buf, false
		}
		pb := d.planBlocks[d.planNext]
		d.planNext++
		d.blockIdx = pb.ordinal
		if !d.seekTo(pb.off) {
			return buf, false
		}
	}
	magic := d.scratch[:4]
	if _, err := io.ReadFull(d.br, magic); err != nil {
		d.failBlock("%v", err)
		return buf, false
	}
	if string(magic) != blockMagic {
		d.failBlock("bad block magic %q", magic)
		return buf, false
	}
	d.hdr = d.hdr[:0]
	nEvents, ok1 := d.readUvarintTee()
	nIO, ok2 := d.readUvarintTee()
	nFork, ok3 := d.readUvarintTee()
	base, ok4 := d.readUvarintTee()
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return buf, false
	}
	ncols, err := d.br.ReadByte()
	if err != nil {
		d.failBlock("%v", err)
		return buf, false
	}
	d.hdr = append(d.hdr, ncols)
	switch {
	case nEvents == 0 || nEvents > maxBlockEvents:
		d.failBlock("event count %d out of range", nEvents)
		return buf, false
	case nEvents > d.remaining:
		d.failBlock("event count %d exceeds remaining %d", nEvents, d.remaining)
		return buf, false
	case nIO > nEvents || nFork > nEvents:
		d.failBlock("population counts %d/%d exceed events %d", nIO, nFork, nEvents)
		return buf, false
	case int(ncols) != NumColumns:
		d.failBlock("column count %d, want %d", ncols, NumColumns)
		return buf, false
	}
	total := 0
	for i := range h.colLen {
		n, ok := d.readUvarintTee()
		if !ok {
			return buf, false
		}
		if n > maxColumnBytes {
			d.failBlock("column %s length %d out of range", columnNames[i], n)
			return buf, false
		}
		h.colLen[i] = int(n)
		total += int(n)
	}
	if _, err := io.ReadFull(d.br, d.scratch[4:8]); err != nil {
		d.failBlock("%v", err)
		return buf, false
	}
	h.storedCRC = binary.LittleEndian.Uint32(d.scratch[4:8])
	n := len(buf)
	buf = slices.Grow(buf, total)[:n+total]
	if _, err := io.ReadFull(d.br, buf[n:]); err != nil {
		d.failBlock("%v", err)
		return buf[:n], false
	}
	h.events, h.ios, h.forks = int(nEvents), int(nIO), int(nFork)
	h.base = Time(base)
	h.total = total
	return buf, true
}

// verifyBlockCRC checks the stored block CRC against d.hdr + d.payload.
func (d *BlockDecoder) verifyBlockCRC(stored uint32) bool {
	crc := crc32.ChecksumIEEE(d.hdr)
	crc = crc32.Update(crc, crc32.IEEETable, d.payload)
	if stored != crc {
		d.failBlock("checksum mismatch (corrupt block): stored %08x, computed %08x", stored, crc)
		return false
	}
	return true
}

// finishBlock records the decoded block's stats and advances the
// execution cursor.
func (d *BlockDecoder) finishBlock(h *blockHeader) {
	d.stats = BlockStats{
		Index:        d.blockIdx,
		Events:       h.events,
		IOs:          h.ios,
		Forks:        h.forks,
		HeaderBytes:  len(d.hdr),
		PayloadBytes: h.total,
		ColBytes:     h.colLen,
	}
	d.remaining -= uint64(h.events)
	d.blockIdx++
	if d.remaining == 0 {
		d.inExec = false
	}
}

// appendBlock decodes the next block of the current execution directly
// into dst, so every event byte is written exactly once. It returns the
// extended slice; ok=false means end of execution or error.
func (d *BlockDecoder) appendBlock(dst []Event) ([]Event, bool) {
	var h blockHeader
	if !d.readBlock(&h) {
		return dst, false
	}
	base := len(dst)
	need := base + h.events
	if cap(dst) < need {
		grown := make([]Event, base, need+need/4)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:need]
	if !d.decodeBlockInto(dst[base:], &h) {
		return dst[:base], false
	}
	d.finishBlock(&h)
	return dst, true
}

// uvarintAt decodes a uvarint at offset p of b, with an inlined fast
// path for the one- and two-byte encodings that dominate the delta
// columns. It returns the value and the offset past it; a negative
// offset means truncation or overflow.
func uvarintAt(b []byte, p int) (uint64, int) {
	if uint(p)+1 < uint(len(b)) {
		c0 := b[p]
		if c0 < 0x80 {
			return uint64(c0), p + 1
		}
		if c1 := b[p+1]; c1 < 0x80 {
			return uint64(c0&0x7f) | uint64(c1)<<7, p + 2
		}
	}
	v, m := binary.Uvarint(b[p:])
	if m <= 0 {
		return 0, -1
	}
	return v, p + m
}

// varintAt is uvarintAt for zigzag-signed varints.
func varintAt(b []byte, p int) (int64, int) {
	if uint(p)+1 < uint(len(b)) {
		c0 := b[p]
		if c0 < 0x80 {
			u := uint64(c0)
			return int64(u>>1) ^ -int64(u&1), p + 1
		}
		if c1 := b[p+1]; c1 < 0x80 {
			u := uint64(c0&0x7f) | uint64(c1)<<7
			return int64(u>>1) ^ -int64(u&1), p + 2
		}
	}
	v, m := binary.Varint(b[p:])
	if m <= 0 {
		return 0, -1
	}
	return v, p + m
}

// decodeBlockInto parses the payload's columns straight into out (length
// h.events). It is the one v2 column decoder: NextBlock and BlockSource,
// sequential or batched, all decode through it.
func (d *BlockDecoder) decodeBlockInto(out []Event, h *blockHeader) bool {
	n, nIO, nFork := h.events, h.ios, h.forks
	var cols [NumColumns][]byte
	off := 0
	for i, l := range h.colLen {
		cols[i] = d.payload[off : off+l]
		off += l
	}

	// time: delta chain from base.
	col, p := cols[colTime], 0
	prev := h.base
	for i := 0; i < n; i++ {
		v, np := uvarintAt(col, p)
		if np < 0 {
			d.failBlock("time column truncated at event %d", i)
			return false
		}
		p = np
		prev += Time(v)
		out[i].Time = prev
	}
	if p != len(col) {
		d.failBlock("time column has %d trailing bytes", len(col)-p)
		return false
	}

	// pid: dictionary + RLE.
	col, p = cols[colPid], 0
	dictLen, m := binary.Uvarint(col)
	if m <= 0 || dictLen > uint64(n) {
		d.failBlock("bad pid dictionary length")
		return false
	}
	p += m
	dict := growSlice(d.pidDict, int(dictLen))
	d.pidDict = dict
	for i := range dict {
		v, np := varintAt(col, p)
		if np < 0 {
			d.failBlock("pid dictionary truncated at entry %d", i)
			return false
		}
		p = np
		dict[i] = PID(v)
	}
	for i := 0; i < n; {
		idx, np := uvarintAt(col, p)
		if np < 0 || idx >= uint64(len(dict)) {
			d.failBlock("bad pid run at event %d", i)
			return false
		}
		p = np
		run, np := uvarintAt(col, p)
		if np < 0 || run == 0 || run > uint64(n-i) {
			d.failBlock("bad pid run length at event %d", i)
			return false
		}
		p = np
		pid := dict[idx]
		for j := 0; j < int(run); j++ {
			out[i].Pid = pid
			i++
		}
	}
	if p != len(col) {
		d.failBlock("pid column has %d trailing bytes", len(col)-p)
		return false
	}

	// kind: RLE; recount the populations against the header.
	col, p = cols[colKind], 0
	gotIO, gotFork := 0, 0
	for i := 0; i < n; {
		if p >= len(col) {
			d.failBlock("kind column truncated at event %d", i)
			return false
		}
		k := Kind(col[p])
		p++
		if k > KindExit {
			d.failBlock("unknown kind %d at event %d", k, i)
			return false
		}
		run, np := uvarintAt(col, p)
		if np < 0 || run == 0 || run > uint64(n-i) {
			d.failBlock("bad kind run length at event %d", i)
			return false
		}
		p = np
		switch k {
		case KindIO:
			gotIO += int(run)
		case KindFork:
			gotFork += int(run)
		}
		for j := 0; j < int(run); j++ {
			out[i].Kind = k
			i++
		}
	}
	if p != len(col) {
		d.failBlock("kind column has %d trailing bytes", len(col)-p)
		return false
	}
	if gotIO != nIO || gotFork != nFork {
		d.failBlock("kind column populations %d/%d disagree with header %d/%d",
			gotIO, gotFork, nIO, nFork)
		return false
	}

	// Scatter the I/O and fork columns, zeroing fields that do not apply
	// to an event's kind (the destination buffer is recycled, so stale
	// values must not leak through).
	acc, ap := cols[colAccess], 0
	pcc, pcp := cols[colPC], 0
	fdc, fdp := cols[colFD], 0
	blc, blp := cols[colBlock], 0
	szc, szp := cols[colSize], 0
	chc, chp := cols[colChild], 0
	var curAcc Access
	accRun := 0
	var curSize int32
	sizeRun := 0
	var prevPC, prevFD, prevBlock int64
	for i := 0; i < n; i++ {
		e := &out[i]
		switch e.Kind {
		case KindIO:
			if accRun == 0 {
				if ap >= len(acc) {
					d.failBlock("access column truncated at event %d", i)
					return false
				}
				curAcc = Access(acc[ap])
				ap++
				if curAcc > AccessClose {
					d.failBlock("unknown access %d at event %d", curAcc, i)
					return false
				}
				run, np := uvarintAt(acc, ap)
				if np < 0 || run == 0 || run > uint64(nIO) {
					d.failBlock("bad access run length at event %d", i)
					return false
				}
				ap = np
				accRun = int(run)
			}
			accRun--
			if sizeRun == 0 {
				v, np := varintAt(szc, szp)
				if np < 0 {
					d.failBlock("size column truncated at event %d", i)
					return false
				}
				szp = np
				curSize = int32(v)
				run, np := uvarintAt(szc, szp)
				if np < 0 || run == 0 || run > uint64(nIO) {
					d.failBlock("bad size run length at event %d", i)
					return false
				}
				szp = np
				sizeRun = int(run)
			}
			sizeRun--
			dpc, np := varintAt(pcc, pcp)
			if np < 0 {
				d.failBlock("pc column truncated at event %d", i)
				return false
			}
			pcp = np
			prevPC += dpc
			dfd, np := varintAt(fdc, fdp)
			if np < 0 {
				d.failBlock("fd column truncated at event %d", i)
				return false
			}
			fdp = np
			prevFD += dfd
			dbl, np := varintAt(blc, blp)
			if np < 0 {
				d.failBlock("block column truncated at event %d", i)
				return false
			}
			blp = np
			prevBlock += dbl
			e.Access = curAcc
			e.PC = PC(prevPC)
			e.FD = FD(prevFD)
			e.Block = prevBlock
			e.Size = curSize
			e.Child = 0
		case KindFork:
			v, np := varintAt(chc, chp)
			if np < 0 {
				d.failBlock("child column truncated at event %d", i)
				return false
			}
			chp = np
			e.Access, e.PC, e.FD = 0, 0, 0
			e.Block, e.Size = 0, 0
			e.Child = PID(v)
		default:
			e.Access, e.PC, e.FD = 0, 0, 0
			e.Block, e.Size = 0, 0
			e.Child = 0
		}
	}
	if accRun != 0 || sizeRun != 0 {
		d.failBlock("access/size runs overrun the block's I/O count")
		return false
	}
	if ap != len(acc) || pcp != len(pcc) || fdp != len(fdc) ||
		blp != len(blc) || szp != len(szc) || chp != len(chc) {
		d.failBlock("I/O columns have trailing bytes")
		return false
	}
	return true
}

// readUvarintTee reads a uvarint from the stream, appending its raw bytes
// to the CRC-covered header scratch.
func (d *BlockDecoder) readUvarintTee() (uint64, bool) {
	var x uint64
	var s uint
	for i := 0; ; i++ {
		b, err := d.br.ReadByte()
		if err != nil {
			d.fail("%v", err)
			return 0, false
		}
		d.hdr = append(d.hdr, b)
		if b < 0x80 {
			if i == 9 && b > 1 {
				d.fail("uvarint overflows 64 bits")
				return 0, false
			}
			return x | uint64(b)<<s, true
		}
		if i >= 9 {
			d.fail("uvarint overflows 64 bits")
			return 0, false
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
}

// readFullTee reads len(p) bytes, appending them to the header scratch.
func (d *BlockDecoder) readFullTee(p []byte) bool {
	if _, err := io.ReadFull(d.br, p); err != nil {
		d.fail("%v", err)
		return false
	}
	d.hdr = append(d.hdr, p...)
	return true
}

// checkCRC reads a stored little-endian CRC32 and compares it.
func (d *BlockDecoder) checkCRC(computed uint32, what string) bool {
	if _, err := io.ReadFull(d.br, d.scratch[4:8]); err != nil {
		d.fail("%v", err)
		return false
	}
	if stored := binary.LittleEndian.Uint32(d.scratch[4:8]); stored != computed {
		d.fail("%s checksum mismatch: stored %08x, computed %08x", what, stored, computed)
		return false
	}
	return true
}

// Err implements the Source error contract.
func (d *BlockDecoder) Err() error { return d.err }

// Reset rewinds seekable inputs to the start of the stream.
func (d *BlockDecoder) Reset() error {
	if d.seek == nil {
		return fmt.Errorf("trace: decoder input is not seekable")
	}
	if _, err := d.seek.Seek(0, io.SeekStart); err != nil {
		return err
	}
	d.br.Reset(d.r)
	d.err = nil
	d.ended = false
	d.inExec = false
	d.count, d.remaining = 0, 0
	d.blockIdx = 0
	d.planPos = 0
	d.planBlocks, d.planNext = nil, 0
	return nil
}
