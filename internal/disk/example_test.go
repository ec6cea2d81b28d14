package disk_test

import (
	"fmt"

	"pcapsim/internal/disk"
	"pcapsim/internal/trace"
)

// Example shows the breakeven arithmetic on the paper's drive: a 4-second
// idle period loses energy when the disk is shut down, a 60-second one
// saves it.
func Example() {
	d := disk.FujitsuMHF2043AT()
	fmt.Printf("cycle energy: %.2f J\n", d.CycleEnergy())
	fmt.Printf("4 s off: %+.2f J\n", d.ShutdownSavings(trace.FromSeconds(4)))
	fmt.Printf("60 s off: %+.2f J\n", d.ShutdownSavings(trace.FromSeconds(60)))
	// Output:
	// cycle energy: 4.76 J
	// 4 s off: -1.18 J
	// 60 s off: +44.74 J
}
