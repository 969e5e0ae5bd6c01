//go:build !race

// The race detector makes sync.Pool drop items at random, so under -race
// the executors build devices afresh and these bounds do not hold.

package vmcu

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
)

// TestRunVerifiedVWWAllocBound guards the verified path's host memory
// beside BenchmarkRunVerifiedVWW: once a warm-up run has filled the device
// and harness pools, a checked netplan.Run of VWW on M4 allocates at
// most 40 KB (about 26 KB measured). Drawing each unit's input, computing
// its golden reference and reading its output back into fresh slices
// costs ~0.48 MB; building a device per unit costs 13 × ~1.15 MB.
func TestRunVerifiedVWWAllocBound(t *testing.T) {
	testVerifiedRunAllocBound(t, VWW(), 40<<10)
}

// TestRunVerifiedImageNetAllocBound is TestRunVerifiedVWWAllocBound for
// ImageNet, split region and seams included: at most 64 KB per run
// (about 46 KB measured), against ~4.4 MB with fresh golden, input and
// readback slices per unit.
func TestRunVerifiedImageNetAllocBound(t *testing.T) {
	testVerifiedRunAllocBound(t, ImageNet(), 64<<10)
}

// testVerifiedRunAllocBound fails unless a warm verified run of net on M4
// allocates at most bound bytes: the least of four runs after a warm-up
// run. Units reach pooled harnesses in whatever order the run's workers
// take them, so a run can still grow a harness that has served only
// smaller units; the least run is one that grew none. The collector is
// off for the measured runs: a collection empties the sync.Pools, and the
// devices and buffers rebuilt after it would measure the collector's
// timing, not the run. GOMAXPROCS is pinned to 2, because netplan.Run
// starts one worker, with its own input source, per core.
func testVerifiedRunAllocBound(t *testing.T, net Network, bound uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	prof := mcu.CortexM4()
	cache := netplan.NewCache()
	run := func(seed int64) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := netplan.Run(prof, net, seed, netplan.Options{}, cache)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllVerified || res.Violations != 0 {
			t.Fatalf("seed %d: verified=%v violations=%d", seed, res.AllVerified, res.Violations)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := run(1)
	for seed := int64(2); seed <= 4; seed++ {
		least = min(least, run(seed))
	}
	if least > bound {
		t.Errorf("a warm verified %s run allocated %d bytes, want <= %d", net.Name, least, bound)
	} else {
		t.Logf("a warm verified %s run allocated %d bytes", net.Name, least)
	}
}
