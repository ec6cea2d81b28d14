package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ErrBadFormat is returned when decoding input that is not a valid trace
// in the decoder's format: every v2 and text decode error wraps it.
var ErrBadFormat = errors.New("trace: bad format")

// maxErrorDetail caps the detail of a text parse error: a binary file
// read as text can make one line, and so its quote, a megabyte long.
const maxErrorDetail = 120

// textLineError is a text-format parse error at a 1-based line number.
func textLineError(line int, format string, args ...any) error {
	detail := fmt.Sprintf(format, args...)
	if len(detail) > maxErrorDetail {
		detail = detail[:maxErrorDetail] + "..."
	}
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, line, detail)
}

// textScanError wraps a failure of the line scanner (a line over the
// length limit, or a read error, which stays matchable with errors.Is).
func textScanError(err error) error {
	return fmt.Errorf("%w: %w", ErrBadFormat, err)
}

// WriteText encodes the trace in a line-oriented, human-readable format:
//
//	# pcap-trace v1
//	# app <name> exec <n>
//	<time-µs> io <pid> <access> pc=0x<hex> fd=<n> block=<n> size=<n>
//	<time-µs> fork <pid> child=<pid>
//	<time-µs> exit <pid>
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# pcap-trace v1\n# app %s exec %d\n", t.App, t.Execution); err != nil {
		return err
	}
	for _, e := range t.Events {
		if _, err := fmt.Fprintln(bw, e.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText decodes a trace in the text format written by WriteText.
func ReadText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	t := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			// "# app <name> exec <n>"
			if len(fields) >= 5 && fields[1] == "app" && fields[3] == "exec" {
				t.App = fields[2]
				exec, err := strconv.Atoi(fields[4])
				if err != nil {
					return nil, textLineError(line, "bad exec: %v", err)
				}
				t.Execution = exec
			}
			continue
		}
		e, err := parseTextEvent(text)
		if err != nil {
			return nil, textLineError(line, "%v", err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, textScanError(err)
	}
	return t, nil
}

func parseTextEvent(text string) (Event, error) {
	fields := strings.Fields(text)
	if len(fields) < 3 {
		return Event{}, fmt.Errorf("too few fields in %q", text)
	}
	us, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("bad time: %v", err)
	}
	pid, err := strconv.ParseInt(fields[2], 10, 32)
	if err != nil {
		return Event{}, fmt.Errorf("bad pid: %v", err)
	}
	e := Event{Time: Time(us), Pid: PID(pid)}
	switch fields[1] {
	case "fork":
		e.Kind = KindFork
		if len(fields) < 4 {
			return Event{}, fmt.Errorf("fork missing child in %q", text)
		}
		child, err := parseKV(fields[3], "child")
		if err != nil {
			return Event{}, err
		}
		e.Child = PID(child)
	case "exit":
		e.Kind = KindExit
	case "io":
		e.Kind = KindIO
		if len(fields) < 8 {
			return Event{}, fmt.Errorf("io event has too few fields in %q", text)
		}
		switch fields[3] {
		case "read":
			e.Access = AccessRead
		case "write":
			e.Access = AccessWrite
		case "open":
			e.Access = AccessOpen
		case "close":
			e.Access = AccessClose
		default:
			return Event{}, fmt.Errorf("unknown access %q", fields[3])
		}
		pc, err := parseKV(fields[4], "pc")
		if err != nil {
			return Event{}, err
		}
		e.PC = PC(pc)
		fd, err := parseKV(fields[5], "fd")
		if err != nil {
			return Event{}, err
		}
		e.FD = FD(fd)
		block, err := parseKV(fields[6], "block")
		if err != nil {
			return Event{}, err
		}
		e.Block = block
		size, err := parseKV(fields[7], "size")
		if err != nil {
			return Event{}, err
		}
		e.Size = int32(size)
	default:
		return Event{}, fmt.Errorf("unknown event kind %q", fields[1])
	}
	return e, nil
}

// TextDecoder is a streaming reader of the text trace format: a Source
// over one or more concatenated text traces, one line per event, in
// constant memory. An "# app <name> exec <n>" header starts a new
// execution; events before any header belong to an unnamed execution 0.
// Reset rewinds when r is an io.Seeker.
type TextDecoder struct {
	r    io.Reader
	seek io.Seeker
	sc   *bufio.Scanner
	line int
	err  error

	app, nextApp   string
	exec, nextExec int
	haveHeader     bool  // an unconsumed header was seen
	pending        Event // parsed but undelivered event
	havePending    bool
	inExec         bool
}

// NewTextDecoder returns a streaming decoder over the text format.
func NewTextDecoder(r io.Reader) *TextDecoder {
	seek, _ := r.(io.Seeker)
	d := &TextDecoder{r: r, seek: seek}
	d.newScanner()
	return d
}

func (d *TextDecoder) newScanner() {
	d.sc = bufio.NewScanner(d.r)
	d.sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
}

// scanLine advances to the next meaningful line: it returns an event to
// deliver, records headers, and reports the end of input.
// kind: 0 = event (in e), 1 = header, 2 = end of input.
func (d *TextDecoder) scanLine() (e Event, kind int) {
	for d.sc.Scan() {
		d.line++
		text := strings.TrimSpace(d.sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 5 && fields[1] == "app" && fields[3] == "exec" {
				exec, err := strconv.Atoi(fields[4])
				if err != nil {
					d.err = textLineError(d.line, "bad exec: %v", err)
					return Event{}, 2
				}
				d.nextApp, d.nextExec = fields[2], exec
				d.haveHeader = true
				return Event{}, 1
			}
			continue
		}
		ev, err := parseTextEvent(text)
		if err != nil {
			d.err = textLineError(d.line, "%v", err)
			return Event{}, 2
		}
		return ev, 0
	}
	if err := d.sc.Err(); err != nil && d.err == nil {
		d.err = textScanError(err)
	}
	return Event{}, 2
}

// NextExec implements Source.
func (d *TextDecoder) NextExec() (string, int, bool) {
	if d.err != nil {
		return "", 0, false
	}
	for d.inExec { // discard the rest of the current execution
		if _, ok := d.Next(); !ok && d.err != nil {
			return "", 0, false
		}
	}
	for {
		if d.havePending || d.haveHeader {
			// A stashed event starts the next execution under the most
			// recent header; a bare header starts an (empty-so-far) one.
			d.app, d.exec = d.nextApp, d.nextExec
			d.haveHeader = false
			d.inExec = true
			return d.app, d.exec, true
		}
		e, kind := d.scanLine()
		switch kind {
		case 0:
			d.pending, d.havePending = e, true
		case 1:
			// header recorded; loop to start the execution
		case 2:
			return "", 0, false
		}
	}
}

// Next implements Source.
func (d *TextDecoder) Next() (Event, bool) {
	if d.err != nil || !d.inExec {
		return Event{}, false
	}
	if d.havePending {
		d.havePending = false
		return d.pending, true
	}
	e, kind := d.scanLine()
	switch kind {
	case 0:
		return e, true
	case 1:
		d.inExec = false // a new header ends the current execution
		return Event{}, false
	default:
		d.inExec = false
		return Event{}, false
	}
}

// Err implements Source.
func (d *TextDecoder) Err() error { return d.err }

// Reset implements Source, rewinding seekable inputs to the start.
func (d *TextDecoder) Reset() error {
	if d.seek == nil {
		return fmt.Errorf("trace: decoder input is not seekable")
	}
	if _, err := d.seek.Seek(0, io.SeekStart); err != nil {
		return err
	}
	d.newScanner()
	d.line = 0
	d.err = nil
	d.app, d.nextApp = "", ""
	d.exec, d.nextExec = 0, 0
	d.haveHeader, d.havePending, d.inExec = false, false, false
	return nil
}

func parseKV(field, key string) (int64, error) {
	prefix := key + "="
	if !strings.HasPrefix(field, prefix) {
		return 0, fmt.Errorf("expected %s=..., got %q", key, field)
	}
	val := field[len(prefix):]
	if strings.HasPrefix(val, "0x") || strings.HasPrefix(val, "0X") {
		v, err := strconv.ParseUint(val[2:], 16, 64)
		return int64(v), err
	}
	return strconv.ParseInt(val, 10, 64)
}
