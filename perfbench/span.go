package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// Span names that are structure, not layers: an operation as a whole,
// a worker pool inside it, and one pool worker's lifetime. Every other
// span is named after the layer (module) whose public function it
// times.
const (
	spanOp     = "op"
	spanPool   = "pool"
	spanWorker = "worker"
)

// span is one timed interval of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // operation ID; 0 outside operations
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time — its duration minus the part
// of its interval that its child spans cover — indexed like spans.
// Children may overlap each other (a parallel pool's task spans); the
// covered part is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	pos := make(map[int]int, len(spans))
	for i, s := range spans {
		pos[s.ID] = i
	}
	children := make([][]span, len(spans))
	for _, s := range spans {
		if i, ok := pos[s.Parent]; ok && s.Parent != 0 {
			children[i] = append(children[i], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s, children[i])
	}
	return out
}

// covered returns the length of the union of kids' intervals inside
// parent's interval.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int {
		switch {
		case a[0] < b[0]:
			return -1
		case a[0] > b[0]:
			return 1
		}
		return 0
	})
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// layerTime sums one span name's durations and self times.
type layerTime struct {
	count int
	total time.Duration
	self  time.Duration
}

// byName aggregates spans by name.
func byName(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.count++
		lt.total += s.dur()
		lt.self += self[i]
		out[s.Name] = lt
	}
	return out
}

// unattributed returns the share of busy operation time that no layer
// span covers: the self time of the operation and pool spans. A worker
// span's self time is idle waiting, not busy time, and is reported
// separately as idle.
func unattributed(layers map[string]layerTime) float64 {
	op := layers[spanOp]
	if op.total <= 0 {
		return 0
	}
	return float64(op.self+layers[spanPool].self) / float64(op.total)
}

// writeSpans writes the spans as JSON lines and prints the per-name
// self-time table.
func writeSpans(path string, spans []span, log io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers := byName(spans)
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	slices.Sort(names)
	fmt.Fprintf(log, "spans: %d written to %s\n", len(spans), path)
	fmt.Fprintf(log, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		lt := layers[name]
		fmt.Fprintf(log, "%-28s %8d %12.4f %12.4f\n", name, lt.count, lt.total.Seconds(), lt.self.Seconds())
	}
	return nil
}
