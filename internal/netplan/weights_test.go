package netplan_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
)

func verifiedRun(t *testing.T, c *netplan.Cache, net graph.Network, seed int64) {
	t.Helper()
	res, err := netplan.Run(mcu.CortexM4(), net, seed, netplan.Options{}, c)
	if err != nil {
		t.Error(err)
		return
	}
	if !res.AllVerified || res.Violations != 0 {
		t.Errorf("seed %d: verified=%v violations=%d", seed, res.AllVerified, res.Violations)
	}
}

// TestWeightsBuiltOnce starts several first runs of one network at once on
// a fresh cache: they share one weight draw, and later runs draw none.
func TestWeightsBuiltOnce(t *testing.T) {
	c := netplan.NewCache()
	net := graph.VWW()
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			verifiedRun(t, c, net, seed)
		}(int64(i))
	}
	wg.Wait()
	verifiedRun(t, c, net, n)
	if got := c.WeightBuilds(); got != 1 {
		t.Errorf("%d concurrent first runs and one more drew the weights %d times, want 1", n, got)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n {
		t.Errorf("plan stats = %d hits / %d misses, want %d/1: weight lookups must not count", st.Hits, st.Misses, n)
	}
}

// sumSource adds every value its stream yields to sum.
type sumSource struct {
	rand.Source
	sum *atomic.Uint64
}

func (s sumSource) Int63() int64 {
	v := s.Source.Int63()
	s.sum.Add(uint64(v))
	return v
}

// TestSeedPicksInputOnly runs one network under two seeds: both runs
// execute the same weights, and the seed changes the inputs they draw.
// The workers' streams draw nothing but inputs, so the order-free sum of
// their values fingerprints a run's inputs.
func TestSeedPicksInputOnly(t *testing.T) {
	c := netplan.NewCache()
	net := graph.VWW()
	var sum atomic.Uint64
	defer netplan.SetInputRand(func() *rand.Rand {
		return rand.New(sumSource{rand.NewSource(1), &sum})
	})()
	inputs := func(seed int64) (uint64, *graph.Weights) {
		sum.Store(0)
		verifiedRun(t, c, net, seed)
		w, err := c.Weights(net)
		if err != nil {
			t.Fatal(err)
		}
		return sum.Load(), w
	}
	in1, w1 := inputs(1)
	in1again, _ := inputs(1)
	in2, w2 := inputs(2)
	if w1 != w2 || c.WeightBuilds() != 1 {
		t.Errorf("runs with seeds 1 and 2 used different weights (%d draws)", c.WeightBuilds())
	}
	if in1 != in1again {
		t.Error("two runs with seed 1 drew different inputs")
	}
	if in1 == in2 {
		t.Error("runs with seeds 1 and 2 drew the same inputs")
	}
}
