package experiments

import (
	"fmt"

	"pcapsim/internal/prefetch"
	"pcapsim/internal/workload"
)

// PrefetchRow is one application's readahead comparison: demand-fetch
// baseline vs PC-blind readahead vs PC-keyed readahead.
type PrefetchRow struct {
	App string
	// BaseMiss is the demand-fetch miss rate.
	BaseMiss float64
	// Global / PC are the two prefetchers' results.
	Global, PC prefetch.Result
}

// prefetchCacheBlocks sizes the readahead evaluation cache (1 MB of 4 KB
// blocks — a page-cache-scale readahead window rather than the tiny
// file-cache of the shutdown study).
const prefetchCacheBlocks = 256

// prefetchDegree is how many blocks a confident stream fetches ahead.
const prefetchDegree = 8

// prefetchRow evaluates one application's readahead comparison, memoized
// so matrix workers and the driver share the evaluation.
func (s *Suite) prefetchRow(app *workload.App) (PrefetchRow, error) {
	v, err := s.memo.do("prefetch/"+app.Name, func() (any, error) {
		rs, err := prefetch.EvaluateSource(s.SourceFor(app), prefetchCacheBlocks, prefetch.None{},
			prefetch.NewGlobalReadahead(prefetchDegree), prefetch.NewPCReadahead(prefetchDegree))
		if err != nil {
			return nil, err
		}
		return PrefetchRow{App: app.Name, BaseMiss: rs[0].MissRate(), Global: rs[1], PC: rs[2]}, nil
	})
	if err != nil {
		return PrefetchRow{}, err
	}
	return v.(PrefetchRow), nil
}

// Prefetch evaluates the paper's §7 prefetching direction on every
// application: per-PC stream contexts against a PC-blind sequential
// readahead.
func (s *Suite) Prefetch() ([]PrefetchRow, error) {
	var rows []PrefetchRow
	for _, app := range s.Apps() {
		row, err := s.prefetchRow(app)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderPrefetch renders the comparison as text.
func (s *Suite) RenderPrefetch() (string, error) {
	rows, err := s.Prefetch()
	if err != nil {
		return "", err
	}
	t := newTable("App", "Demand miss", "Readahead miss", "PC miss", "Readahead acc", "PC acc")
	for _, r := range rows {
		t.Row(r.App, pct(r.BaseMiss), pct(r.Global.MissRate()), pct(r.PC.MissRate()),
			pct(r.Global.Accuracy()), pct(r.PC.Accuracy()))
	}
	return fmt.Sprintf("PC-based prefetching (paper §7 future work): block miss rates, "+
		"%d-block cache, degree %d\n\n", prefetchCacheBlocks, prefetchDegree) + t.String(), nil
}
