package lint

import "strings"

// resultAffectingPackages are the packages whose code can perturb
// experiment output: everything on the path from workload generation
// through simulation to the reported tables and figures. The detmap and
// nondet-source analyzers only fire here — cmd/* and internal/rng are
// deliberately outside (a CLI may read the clock for progress output, and
// internal/rng is the one sanctioned randomness seam).
var resultAffectingPackages = map[string]bool{
	"internal/sim":         true,
	"internal/core":        true,
	"internal/fscache":     true,
	"internal/experiments": true,
	"internal/workload":    true,
	"internal/trace":       true,
	"internal/predictor":   true,
	"internal/prefetch":    true,
	"internal/ltree":       true,
	"internal/hypothesis":  true,
	"internal/fleet":       true,
	"internal/server":      true,
}

// resultAffecting reports whether the module-relative package path is in
// the result-affecting set.
func resultAffecting(relPath string) bool {
	return resultAffectingPackages[relPath]
}

// errcheckScope reports whether errcheck-lite covers the package: the
// codec and persistence layers (a swallowed error silently corrupts trace
// or state files), the daemon's writers (a dropped Write/Flush error on
// the SSE stream masks a client disconnect and keeps a dead job
// streaming), and every command.
func errcheckScope(relPath string) bool {
	return relPath == "internal/trace" || relPath == "internal/persist" ||
		relPath == "internal/server" ||
		strings.HasPrefix(relPath, "cmd/")
}
