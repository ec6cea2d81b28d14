package prefetch_test

import (
	"fmt"

	"pcapsim/internal/prefetch"
	"pcapsim/internal/trace"
)

// Example interleaves two sequential streams — as two processes reading
// two files do — and compares the PC-blind readahead with the PC-keyed
// one. The global readahead never sees two consecutive blocks, so it
// never prefetches; the per-PC contexts each see a clean run.
func Example() {
	tr := &trace.Trace{App: "interleaved"}
	var now trace.Time
	for i := 0; i < 100; i++ {
		for _, stream := range []struct {
			pc   trace.PC
			base int64
		}{{0x100, 0}, {0x200, 50000}} {
			now += 1000
			tr.Events = append(tr.Events, trace.Event{
				Time: now, Pid: 1, Kind: trace.KindIO, Access: trace.AccessRead,
				PC: stream.pc, FD: 3, Block: stream.base + int64(i), Size: 4096,
			})
		}
	}
	rs, _ := prefetch.EvaluateSource(trace.NewSliceSource(tr), 128, prefetch.NewGlobalReadahead(8), prefetch.NewPCReadahead(8))
	global, pc := rs[0], rs[1]
	fmt.Printf("PC-blind readahead: %.0f%% misses\n", 100*global.MissRate())
	fmt.Printf("PC-keyed readahead: %.0f%% misses\n", 100*pc.MissRate())

	// Output:
	// PC-blind readahead: 100% misses
	// PC-keyed readahead: 2% misses
}
