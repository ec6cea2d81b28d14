package fleet

import (
	"fmt"
	"sync"

	"pcapsim/internal/rng"
	"pcapsim/internal/trace"
)

// mixBufPool recycles per-machine event buffers across machine lifetimes:
// a mixSource owns one buffer from its first NextExec to the call that
// reports exhaustion, so a fleet's live buffer count is one per worker,
// not one per machine.
var mixBufPool sync.Pool // of *[]trace.Event

// getMixBuf fetches a recycled (empty, capacity-preserving) buffer.
// The caller takes ownership and must pair it with putMixBuf.
//
//pcaplint:owner-transfer
func getMixBuf() []trace.Event {
	if p, ok := mixBufPool.Get().(*[]trace.Event); ok {
		return (*p)[:0]
	}
	return nil
}

// putMixBuf returns a buffer to the pool.
func putMixBuf(buf []trace.Event) {
	if cap(buf) == 0 {
		return
	}
	buf = buf[:0]
	mixBufPool.Put(&buf)
}

// mixSource is one machine's session as a trace.Source: a sequence of
// application executions drawn per execution from the fleet's app mix,
// generated on demand into a single recycled buffer. It is the fleet
// analogue of workload.Stream — same pooled-buffer ownership, same
// slice-lending contract — with two differences: the application is
// re-drawn each execution from the machine's deterministic pick stream,
// and the session is bounded by virtual time (Config.Session) or an
// execution count (Config.Executions) instead of an app's recorded
// executions. It is also the fleet's cancellation point: NextExec polls
// Config.Interrupt before every execution and ends the session on the
// first error, which Err reports.
//
// The per-app execution indices advance independently (the third mozilla
// session a machine starts is mozilla execution 2 regardless of what ran
// in between), so every machine walks each application's canonical
// execution sequence for its workload seed — indices past an app's
// recorded count extrapolate deterministically.
type mixSource struct {
	f     *Fleet
	id    int
	seed  uint64      // the machine's workload seed (Spec.WorkloadSeed)
	picks *rng.Source // per-execution app pick stream

	execIdx []int         // next execution index per mix entry
	emitted int           // executions started
	elapsed trace.Time    // session clock: sum of finished execution durations
	cur     []trace.Event // current execution's events (recycled buffer)
	err     error         // first Interrupt error; ends the session
}

// newMixSource builds machine id's session source. The rng draw order is
// part of the determinism contract: the machine root chain first yields
// the Spec draws, then splits off the app-pick stream.
func (f *Fleet) newMixSource(id int) *mixSource {
	r := f.machineRNG(id)
	spec := f.specFrom(r)
	return &mixSource{
		f:       f,
		id:      id,
		seed:    spec.WorkloadSeed,
		picks:   r.Split(appPickLabel),
		execIdx: make([]int, len(f.apps)),
	}
}

// exhausted reports whether the session bound has been reached. A session
// always completes at least one execution.
func (s *mixSource) exhausted() bool {
	if s.f.cfg.Executions > 0 {
		return s.emitted >= s.f.cfg.Executions
	}
	return s.emitted > 0 && s.elapsed >= s.f.cfg.Session
}

// NextExec implements trace.Source: poll Config.Interrupt, draw the next
// application, generate its next execution into the recycled buffer, and
// advance the session clock by the previous execution's duration —
// mirroring the simulator's session clock, under which executions abut
// end-to-start.
func (s *mixSource) NextExec() (string, int, bool) {
	if len(s.cur) > 0 {
		// The duration the simulator charges an execution is its last
		// event's time (trace.Trace.Duration), so the session clock is the
		// sum of those.
		s.elapsed += s.cur[len(s.cur)-1].Time
	}
	if s.err == nil && s.f.cfg.Interrupt != nil {
		if err := s.f.cfg.Interrupt(); err != nil {
			s.err = fmt.Errorf("fleet: interrupted: %w", err)
		}
	}
	if s.err != nil || s.exhausted() {
		if s.cur != nil {
			putMixBuf(s.cur)
			s.cur = nil
		}
		return "", 0, false
	}
	if s.emitted == 0 && s.cur == nil {
		s.cur = getMixBuf()
	}
	app := s.picks.Pick(s.f.appWeights)
	exec := s.execIdx[app]
	s.execIdx[app]++
	s.emitted++
	s.cur = s.f.apps[app].appendEvents(s.cur[:0], s.seed, exec)
	return s.f.apps[app].name, exec, true
}

// ExecEvents implements trace.Source: the current execution, lent from
// the recycled buffer.
func (s *mixSource) ExecEvents() []trace.Event { return s.cur }

// Err implements trace.Source: generation cannot fail, so the only error
// is an interrupt.
func (s *mixSource) Err() error { return s.err }

// Reset implements trace.Source, rewinding to the session start. Replays
// are identical: the pick stream is re-derived from the machine's root rng
// chain.
func (s *mixSource) Reset() error {
	r := s.f.machineRNG(s.id)
	s.f.specFrom(r)
	s.picks = r.Split(appPickLabel)
	for i := range s.execIdx {
		s.execIdx[i] = 0
	}
	s.emitted = 0
	s.elapsed = 0
	s.cur = s.cur[:0]
	s.err = nil
	return nil
}
