// Package prefetch implements the paper's closing future-work direction:
// "PCAP opens a new direction for the development of predictor-based
// techniques suitable for many other aspects of the operating system,
// such as file buffer management and I/O prefetching."
//
// The same observation that powers PCAP — the program counter of an I/O
// identifies *which loop* in the application is executing — applies to
// readahead. A PC-blind sequential readahead sees one interleaved block
// stream and loses the pattern whenever two sequential streams (two
// processes, or two files) interleave; a PC-based prefetcher keeps one
// stream context per call site, so each loop's sequentiality survives the
// interleaving. (This is the direction the authors later developed into
// PC-based buffer-cache classification.)
//
// The package provides both prefetchers and an evaluation harness that
// replays workload traces through a block cache and scores demand misses,
// prefetch coverage and accuracy.
package prefetch

import (
	"fmt"

	"pcapsim/internal/fscache"
	"pcapsim/internal/lru"
	"pcapsim/internal/trace"
)

// Prefetcher decides how far to read ahead after each read access.
type Prefetcher interface {
	// Name returns a short identifier for result tables.
	Name() string
	// OnRead observes a demand read of block and returns the readahead
	// depth n: the blocks block+1 .. block+n are to be prefetched.
	OnRead(pc trace.PC, block int64) int
}

// threshold is the stream score at which a readahead prefetcher becomes
// confident and starts fetching ahead.
const threshold = 2

// maxSites bounds PCReadahead's per-PC state (LRU would be the production
// answer; the site sets here are tiny, so a hard cap suffices).
const maxSites = 4096

// None never prefetches — the demand-fetch baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// OnRead implements Prefetcher.
func (None) OnRead(trace.PC, int64) int { return 0 }

// sequentialState tracks one stream's recent behaviour.
type sequentialState struct {
	last  int64
	score int
}

// observe updates the stream with a block and reports whether it is
// confident enough to prefetch.
func (s *sequentialState) observe(block int64) bool {
	if block == s.last+1 {
		if s.score < threshold+2 {
			s.score++
		}
	} else if s.score > 0 {
		s.score--
	}
	s.last = block
	return s.score >= threshold
}

// GlobalReadahead is the PC-blind baseline: one stream context for the
// whole disk. Interleaved sequential streams destroy its score.
type GlobalReadahead struct {
	// Degree is how many blocks to fetch ahead once confident.
	Degree int
	state  sequentialState
}

// NewGlobalReadahead returns the baseline with the given degree.
func NewGlobalReadahead(degree int) *GlobalReadahead {
	return &GlobalReadahead{Degree: degree}
}

// Name implements Prefetcher.
func (g *GlobalReadahead) Name() string { return "readahead" }

// OnRead implements Prefetcher.
func (g *GlobalReadahead) OnRead(_ trace.PC, block int64) int {
	if g.state.observe(block) {
		return g.Degree
	}
	return 0
}

// PCReadahead keeps one stream context per program counter — the paper's
// insight applied to prefetching. Sites beyond the first maxSites are
// never tracked.
type PCReadahead struct {
	// Degree is how many blocks to fetch ahead once a site is confident.
	Degree int
	sites  map[trace.PC]*sequentialState
}

// NewPCReadahead returns a PC-keyed prefetcher with the given degree.
func NewPCReadahead(degree int) *PCReadahead {
	return &PCReadahead{Degree: degree, sites: make(map[trace.PC]*sequentialState)}
}

// Name implements Prefetcher.
func (p *PCReadahead) Name() string { return "pc-readahead" }

// OnRead implements Prefetcher.
func (p *PCReadahead) OnRead(pc trace.PC, block int64) int {
	st, ok := p.sites[pc]
	if !ok {
		if len(p.sites) >= maxSites {
			return 0
		}
		st = &sequentialState{last: block - 1} // optimistic: first touch scores
		p.sites[pc] = st
	}
	if st.observe(block) {
		return p.Degree
	}
	return 0
}

// Result scores one prefetcher over one trace set.
type Result struct {
	Prefetcher string
	// DemandReads is the number of block reads issued by the workload.
	DemandReads int
	// DemandMisses is how many of them had to go to disk (cache and
	// prefetch misses).
	DemandMisses int
	// PrefetchHits is how many demand reads were served by a previously
	// prefetched block.
	PrefetchHits int
	// Prefetched is the number of blocks fetched ahead; Wasted counts
	// those evicted unused.
	Prefetched int
	Wasted     int
}

// MissRate returns demand misses over demand reads.
func (r Result) MissRate() float64 {
	if r.DemandReads == 0 {
		return 0
	}
	return float64(r.DemandMisses) / float64(r.DemandReads)
}

// Coverage returns the fraction of demand reads served by prefetched
// blocks.
func (r Result) Coverage() float64 {
	if r.DemandReads == 0 {
		return 0
	}
	return float64(r.PrefetchHits) / float64(r.DemandReads)
}

// Accuracy returns the fraction of prefetched blocks that were used.
func (r Result) Accuracy() float64 {
	if r.Prefetched == 0 {
		return 0
	}
	return float64(r.PrefetchHits) / float64(r.Prefetched)
}

// blockSize is the evaluation's block size: reads split into 4 KB blocks,
// as in the file cache simulator.
const blockSize = 4096

// scorer scores one prefetcher over a read-only LRU block cache that
// distinguishes demand from prefetched residency.
type scorer struct {
	p          Prefetcher
	cache      *lru.List[int64]
	prefetched []bool // by cache slot: resident because of an unused prefetch
	res        Result
}

// hash spreads a block id over the cache index (Fibonacci multiplicative
// hash).
func hash(block int64) uint64 { return uint64(block) * 0x9E3779B97F4A7C15 >> 32 }

// read scores one demand read of block and then issues the prefetcher's
// readahead. Prefetches are background I/O: they do not count as demand
// misses, but unused ones count as waste.
func (s *scorer) read(pc trace.PC, block int64) {
	s.res.DemandReads++
	if slot := s.cache.Find(block, hash(block)); slot == 0 {
		s.res.DemandMisses++
		if s.insert(block, false) {
			s.res.Wasted++
		}
	} else {
		if s.prefetched[slot] {
			s.res.PrefetchHits++
			s.prefetched[slot] = false // now demand-owned
		}
		s.cache.Touch(slot)
	}
	last := block + int64(s.p.OnRead(pc, block))
	for pb := block + 1; pb <= last; pb++ {
		if s.cache.Find(pb, hash(pb)) != 0 {
			continue
		}
		s.res.Prefetched++
		if s.insert(pb, true) {
			s.res.Wasted++
		}
	}
}

// insert adds an absent block as the most recently used one, evicting the
// least recently used block if the cache is full, and reports whether the
// victim was an unused prefetch.
func (s *scorer) insert(block int64, prefetched bool) (wastedEviction bool) {
	// prefetched holds one flag per cache block plus the sentinel slot's.
	if s.cache.Len() == len(s.prefetched)-1 {
		v := s.cache.Oldest()
		wastedEviction = s.prefetched[v]
		s.cache.Remove(v)
	}
	s.prefetched[s.cache.Insert(block, hash(block))] = prefetched
	return wastedEviction
}

// endExec counts the prefetched blocks never touched before the execution
// ended as fetched for nothing, and empties the cache for the next one.
func (s *scorer) endExec() {
	for slot := s.cache.Newest(); slot != 0; slot = s.cache.Older(slot) {
		if s.prefetched[slot] {
			s.res.Wasted++
		}
	}
	s.cache.Reset()
}

// Evaluate replays the I/O events of the given traces through one block
// cache of capBlocks blocks per prefetcher and returns the scores in the
// order of ps. Only reads participate (readahead does not interact
// with the write-back path); multi-block reads are split per block by
// fscache.SpanBlocks, as in the file cache simulator.
func Evaluate(traces []*trace.Trace, capBlocks int, ps ...Prefetcher) ([]Result, error) {
	return EvaluateSource(trace.NewSliceSource(traces...), capBlocks, ps...)
}

// EvaluateSource is Evaluate over a streaming trace source: each
// execution is scored as it is pulled, in one pass that feeds every
// prefetcher, so memory stays one execution whatever the workload
// length. Each prefetcher has its own cache. Its learned state persists
// across executions; its cache starts cold for each one.
func EvaluateSource(src trace.Source, capBlocks int, ps ...Prefetcher) ([]Result, error) {
	if capBlocks <= 0 {
		return nil, fmt.Errorf("prefetch: cache capacity must be positive, got %d", capBlocks)
	}
	scorers := make([]scorer, len(ps))
	for i, p := range ps {
		scorers[i] = scorer{
			p:          p,
			cache:      lru.New[int64](capBlocks),
			prefetched: make([]bool, capBlocks+1),
			res:        Result{Prefetcher: p.Name()},
		}
	}
	for {
		if _, _, ok := src.NextExec(); !ok {
			break
		}
		for _, e := range src.ExecEvents() {
			if e.Kind != trace.KindIO || e.Access != trace.AccessRead && e.Access != trace.AccessOpen {
				continue
			}
			n := int64(fscache.SpanBlocks(e.Size, blockSize))
			for i := int64(0); i < n; i++ {
				for j := range scorers {
					scorers[j].read(e.PC, e.Block+i)
				}
			}
		}
		for j := range scorers {
			scorers[j].endExec()
		}
	}
	if err := src.Err(); err != nil {
		return nil, fmt.Errorf("prefetch: reading trace source: %w", err)
	}
	results := make([]Result, len(ps))
	for i := range scorers {
		results[i] = scorers[i].res
	}
	return results, nil
}
