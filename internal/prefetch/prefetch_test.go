package prefetch

import (
	"testing"

	"pcapsim/internal/trace"
)

// seqTrace builds a trace of per-PC sequential streams, optionally
// interleaved access by access.
func seqTrace(interleaved bool, perStream int) *trace.Trace {
	tr := &trace.Trace{App: "seq"}
	var now trace.Time
	add := func(pc trace.PC, block int64) {
		now += 1000
		tr.Events = append(tr.Events, trace.Event{
			Time: now, Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead,
			PC: pc, FD: 3, Block: block, Size: 4096,
		})
	}
	if interleaved {
		for i := 0; i < perStream; i++ {
			add(0x100, int64(i))
			add(0x200, int64(100000+i))
		}
	} else {
		for i := 0; i < perStream; i++ {
			add(0x100, int64(i))
		}
		for i := 0; i < perStream; i++ {
			add(0x200, int64(100000+i))
		}
	}
	return tr
}

func TestNoPrefetchBaseline(t *testing.T) {
	rs, err := EvaluateSource(trace.NewSliceSource(seqTrace(false, 50)), 64, None{})
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	if res.DemandReads != 100 || res.DemandMisses != 100 {
		t.Fatalf("baseline %+v", res)
	}
	if res.Prefetched != 0 || res.Coverage() != 0 {
		t.Fatalf("None prefetched: %+v", res)
	}
}

func TestGlobalReadaheadOnCleanStream(t *testing.T) {
	rs, err := EvaluateSource(trace.NewSliceSource(seqTrace(false, 50)), 64, NewGlobalReadahead(8))
	if err != nil {
		t.Fatal(err)
	}
	res := rs[0]
	// Two un-interleaved sequential streams: readahead must eliminate most
	// misses once warmed up.
	if res.MissRate() > 0.2 {
		t.Fatalf("clean stream miss rate %.2f: %+v", res.MissRate(), res)
	}
	if res.Accuracy() < 0.8 {
		t.Fatalf("clean stream accuracy %.2f", res.Accuracy())
	}
}

// TestPCBeatsGlobalOnInterleavedStreams is the package's reason to exist:
// interleaving two sequential streams destroys the PC-blind readahead's
// score but leaves the per-PC contexts untouched.
func TestPCBeatsGlobalOnInterleavedStreams(t *testing.T) {
	traces := []*trace.Trace{seqTrace(true, 200)}
	rs, err := EvaluateSource(trace.NewSliceSource(traces...), 128, NewGlobalReadahead(8), NewPCReadahead(8))
	if err != nil {
		t.Fatal(err)
	}
	global, pc := rs[0], rs[1]
	if pc.MissRate() > 0.2 {
		t.Fatalf("pc readahead missed %.2f on interleaved streams", pc.MissRate())
	}
	if global.MissRate() < 0.9 {
		t.Fatalf("global readahead unexpectedly survived interleaving: %.2f", global.MissRate())
	}
	if pc.Coverage() <= global.Coverage() {
		t.Fatalf("pc coverage %.2f not above global %.2f", pc.Coverage(), global.Coverage())
	}
}

func TestPCReadaheadRandomSiteStaysQuiet(t *testing.T) {
	// A site issuing random blocks must never become confident.
	tr := &trace.Trace{App: "rand"}
	var now trace.Time
	blocks := []int64{900, 17, 4242, 33, 991, 5, 777, 102, 64, 8000}
	for _, b := range blocks {
		now += 1000
		tr.Events = append(tr.Events, trace.Event{
			Time: now, Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead,
			PC: 0x300, FD: 3, Block: b, Size: 4096,
		})
	}
	rs, err := EvaluateSource(trace.NewSliceSource(tr), 64, NewPCReadahead(8))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Prefetched != 0 {
		t.Fatalf("random site prefetched %d blocks", rs[0].Prefetched)
	}
}

func TestPCReadaheadSiteCap(t *testing.T) {
	p := NewPCReadahead(4)
	for pc := trace.PC(1); pc <= maxSites; pc++ {
		p.OnRead(pc, 10*int64(pc))
	}
	// Beyond the cap: ignored, no growth, and no readahead even on a run
	// that a tracked site would score.
	late := trace.PC(maxSites + 1)
	for b := int64(0); b < 8; b++ {
		if n := p.OnRead(late, b); n != 0 {
			t.Fatalf("untracked site prefetched %d blocks", n)
		}
	}
	if len(p.sites) != maxSites {
		t.Fatalf("site map holds %d sites, cap %d", len(p.sites), maxSites)
	}
}

// TestMultiBlockReadSpan: a read spans its byte count rounded up to whole
// blocks, the file cache simulator's rule, so 6000 bytes touch two.
func TestMultiBlockReadSpan(t *testing.T) {
	tr := &trace.Trace{App: "span", Events: []trace.Event{{
		Time: 1000, Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead,
		PC: 0x100, FD: 3, Block: 40, Size: 6000,
	}}}
	rs, err := EvaluateSource(trace.NewSliceSource(tr), 64, None{})
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].DemandReads != 2 || rs[0].DemandMisses != 2 {
		t.Fatalf("6000-byte read: %+v, want 2 demand reads and misses", rs[0])
	}
}

func TestEvaluateRejectsBadCapacity(t *testing.T) {
	if _, err := EvaluateSource(trace.NewSliceSource(), 0, None{}); err == nil {
		t.Fatal("zero capacity accepted")
	}
}

func TestResultRatios(t *testing.T) {
	r := Result{DemandReads: 100, DemandMisses: 25, PrefetchHits: 50, Prefetched: 80, Wasted: 30}
	if r.MissRate() != 0.25 || r.Coverage() != 0.5 || r.Accuracy() != 0.625 {
		t.Fatalf("ratios: %.2f %.2f %.2f", r.MissRate(), r.Coverage(), r.Accuracy())
	}
	var zero Result
	if zero.MissRate() != 0 || zero.Coverage() != 0 || zero.Accuracy() != 0 {
		t.Fatal("zero-value ratios must be zero")
	}
}
