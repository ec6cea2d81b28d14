//go:build race

package fleet

// Under the race detector, allocation counts are inflated by the
// instrumentation; allocation-sensitive tests consult this flag and skip.
func init() { raceDetectorEnabled = true }
