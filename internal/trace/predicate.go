package trace

// Predicate selects a slice of a trace: a time range, a process, and/or
// a program-counter range. The zero value matches every event.
//
// Predicates drive two layers that compose:
//
//   - Block pushdown (BlockDecoder.SetPredicate, BlockSource,
//     OpenTraceFileOpts): MatchMeta is evaluated against per-block index
//     entries, and blocks that cannot contain a matching event are
//     skipped without being read. This is conservative — a surviving
//     block may still hold events the predicate rejects — which is what
//     makes it sound: MatchEvent(e) implies MatchMeta(block containing
//     e), so a skipped block never hides a matching event.
//   - Exact filtering (FilterEvents): MatchEvent is applied per event on
//     whatever the lower layer delivers.
//
// Pushdown-then-filter therefore yields exactly the same event stream
// as filter alone, just without reading the skipped bytes.
type Predicate struct {
	// From and To bound event times inclusively. To == 0 means
	// unbounded above (the formats' timestamps are non-negative, and a
	// trace sliced to the single instant 0 is not a useful query).
	From, To Time
	// Pid, when nonzero, keeps only events whose Pid field matches. A
	// fork's child process is selected by its own later events, not by
	// the fork record (which belongs to the parent).
	Pid PID
	// PCFrom and PCTo bound the program counter of I/O events
	// inclusively; both zero means no PC constraint. When set, only
	// KindIO events can match.
	PCFrom, PCTo PC
}

// IsZero reports whether the predicate matches everything.
func (p Predicate) IsZero() bool { return p == Predicate{} }

// hasPC reports whether a PC constraint is set.
func (p Predicate) hasPC() bool { return p.PCFrom != 0 || p.PCTo != 0 }

// MatchEvent reports whether the event satisfies the predicate.
func (p Predicate) MatchEvent(e Event) bool {
	if e.Time < p.From {
		return false
	}
	if p.To != 0 && e.Time > p.To {
		return false
	}
	if p.Pid != 0 && e.Pid != p.Pid {
		return false
	}
	if p.hasPC() {
		if e.Kind != KindIO || e.PC < p.PCFrom || e.PC > p.PCTo {
			return false
		}
	}
	return true
}

// MatchMeta reports whether a block with the given index entry could
// contain a matching event. It is conservative: false means no event in
// the block can match (the block is safe to skip), true means the block
// must be decoded and filtered.
func (p Predicate) MatchMeta(m *BlockMeta) bool {
	if m.MaxTime < p.From {
		return false
	}
	if p.To != 0 && m.MinTime > p.To {
		return false
	}
	if p.Pid != 0 && !pidInSorted(m.Pids, p.Pid) {
		return false
	}
	if p.hasPC() {
		if m.IOs == 0 || m.PCMax < p.PCFrom || m.PCMin > p.PCTo {
			return false
		}
	}
	return true
}

// pidInSorted reports whether pid appears in the sorted set.
func pidInSorted(pids []PID, pid PID) bool {
	lo, hi := 0, len(pids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pids[mid] < pid {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(pids) && pids[lo] == pid
}

// FilterEvents wraps src so only events matching p are delivered —
// exact, decode-then-drop filtering. It is both the layer that makes
// block pushdown exact and the differential reference pushdown is
// tested against. A zero predicate returns src unchanged.
func FilterEvents(src Source, p Predicate) Source {
	if p.IsZero() {
		return src
	}
	return &filterSource{Source: src, p: p}
}

// filterSource is FilterEvents' implementation. It forwards the
// execution structure unchanged (an execution with no matching events
// is delivered empty, preserving execution indices) and copies each
// execution's matching events into a buffer of its own.
type filterSource struct {
	Source
	p   Predicate
	buf []Event
}

// NextExec implements Source.
func (f *filterSource) NextExec() (string, int, bool) {
	app, exec, ok := f.Source.NextExec()
	f.buf = f.buf[:0]
	if ok {
		for _, e := range f.Source.ExecEvents() {
			if f.p.MatchEvent(e) {
				f.buf = append(f.buf, e)
			}
		}
	}
	return app, exec, ok
}

// ExecEvents implements Source.
func (f *filterSource) ExecEvents() []Event { return f.buf }
