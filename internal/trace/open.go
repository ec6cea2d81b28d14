package trace

import (
	"io"
	"os"
)

// Format sniffing: every tool accepts v2 columnar and text traces
// interchangeably by looking at the leading magic bytes.

// OpenOptions tune OpenTraceFileOpts.
type OpenOptions struct {
	// Workers > 0 selects the parallel decode pipeline (ParallelSource)
	// for v2 columnar files, with that many decode workers; text files
	// fall back to the sequential text decoder. Workers < 0 selects the
	// pipeline with GOMAXPROCS workers.
	Workers int
	// Pred restricts the stream to matching events. On v2 files with an
	// index footer, non-matching blocks are skipped without being read
	// (predicate pushdown); the surviving stream is then filtered
	// exactly, so every format yields the same events.
	Pred Predicate
}

// FileSource is a Source over an opened trace file; Close releases the
// file handle.
type FileSource struct {
	Source
	inner Source // unwrapped decoder, owning any pipeline resources
	f     *os.File
}

// Close stops any decode pipeline and closes the underlying file.
func (fs *FileSource) Close() error {
	if c, ok := fs.inner.(io.Closer); ok {
		_ = c.Close()
	}
	return fs.f.Close()
}

// Name returns the path the source was opened from.
func (fs *FileSource) Name() string { return fs.f.Name() }

// OpenTraceFile opens path and returns a streaming, resettable Source
// over it, sniffing the format (v2 columnar or text) from the file's
// first bytes. The caller owns the Close.
func OpenTraceFile(path string) (*FileSource, error) {
	return OpenTraceFileOpts(path, OpenOptions{})
}

// OpenTraceFileOpts is OpenTraceFile with decode options: parallel
// block decode and predicate pushdown for v2 files, exact filtering
// everywhere. The zero OpenOptions is exactly OpenTraceFile.
func OpenTraceFileOpts(path string, opts OpenOptions) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := newSourceOpts(f, opts)
	if err != nil {
		// The sniff failure is the error worth reporting; nothing was
		// written, so the close cannot lose data.
		_ = f.Close()
		return nil, err
	}
	return &FileSource{Source: FilterEvents(src, opts.Pred), inner: src, f: f}, nil
}

// newSourceOpts sniffs r's leading four bytes and builds the decoder
// opts ask for: "PCT2" selects v2 (the parallel pipeline and/or
// pushdown), anything else the text format. The reader is rewound to the
// start first. The returned source is unfiltered — callers compose
// FilterEvents for exact predicate semantics.
func newSourceOpts(r io.ReadSeeker, opts OpenOptions) (Source, error) {
	var magic [4]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if n < len(magic) || string(magic[:]) != blockFileMagic {
		return NewTextDecoder(r), nil
	}
	if opts.Workers != 0 {
		ps := NewParallelSource(r, opts.Workers)
		ps.SetPredicate(opts.Pred)
		return ps, nil
	}
	bs := NewBlockSource(r)
	bs.SetPredicate(opts.Pred)
	return bs, nil
}
