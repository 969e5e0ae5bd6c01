//go:build !race

// The race detector makes sync.Pool drop items at random, so under -race
// the executors build devices afresh and this bound does not hold.

package vmcu

import (
	"runtime"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
)

// TestRunVerifiedVWWAllocBound guards the pooled-device path beside
// BenchmarkRunVerifiedVWW: once a warm-up run has filled the device pool,
// one checked netplan.Run of VWW on M4 allocates at most 4 MB. Building a
// device per unit instead costs 13 × ~1.15 MB.
func TestRunVerifiedVWWAllocBound(t *testing.T) {
	const bound = 4 << 20
	prof, net := mcu.CortexM4(), VWW()
	cache := netplan.NewCache()
	run := func(seed int64) {
		res, err := netplan.Run(prof, net, seed, netplan.Options{}, cache)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllVerified || res.Violations != 0 {
			t.Fatalf("seed %d: verified=%v violations=%d", seed, res.AllVerified, res.Violations)
		}
	}
	run(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(1)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("one verified VWW run allocated %d bytes, want <= %d", got, bound)
	} else {
		t.Logf("one verified VWW run allocated %d bytes", got)
	}
}
