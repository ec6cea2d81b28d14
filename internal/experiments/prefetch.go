package experiments

import (
	"fmt"
	"sync"

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

// prefetchEntry is one application's stored row, evaluated once.
type prefetchEntry struct {
	once sync.Once
	row  PrefetchRow
	err  error
}

// planPrefetch plans one prefetch/<app> row per application.
func (s *Suite) planPrefetch(l *taskList) error {
	for _, app := range s.Apps() {
		l.add("prefetch/"+app.Name, func() error {
			_, err := s.prefetchRow(app, true)
			return err
		})
	}
	return nil
}

// prefetchRow returns one application's row, evaluating it once. Only a
// prefetch task adds a row; a reader (add unset) of a row no task added
// gets an error.
func (s *Suite) prefetchRow(app *workload.App, add bool) (PrefetchRow, error) {
	s.mu.Lock()
	e := s.prefetched[app.Name]
	if e == nil && add {
		if s.prefetched == nil {
			s.prefetched = make(map[string]*prefetchEntry)
		}
		e = new(prefetchEntry)
		s.prefetched[app.Name] = e
	}
	s.mu.Unlock()
	if e == nil {
		return PrefetchRow{}, notRun("prefetch for " + app.Name)
	}
	e.once.Do(func() {
		rs, err := prefetch.EvaluateSource(s.SourceFor(app), prefetchCacheBlocks, prefetch.None{},
			prefetch.NewGlobalReadahead(prefetchDegree), prefetch.NewPCReadahead(prefetchDegree))
		if err != nil {
			e.err = err
			return
		}
		e.row = PrefetchRow{App: app.Name, BaseMiss: rs[0].MissRate(), Global: rs[1], PC: rs[2]}
	})
	return e.row, e.err
}

// Prefetch returns the §7 prefetching comparison on every application
// from the suite's rows: per-PC stream contexts against a PC-blind
// sequential readahead.
func (s *Suite) Prefetch() ([]PrefetchRow, error) {
	var rows []PrefetchRow
	for _, app := range s.Apps() {
		row, err := s.prefetchRow(app, false)
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
