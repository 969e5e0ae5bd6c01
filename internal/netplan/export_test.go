package netplan

import "math/rand"

// WeightBuilds reports how many times c has drawn a network's weights.
func (c *Cache) WeightBuilds() uint64 { return c.weightBuilds.Load() }

// SetInputRand makes every Run worker take its input stream from f until
// the returned restore is called.
func SetInputRand(f func() *rand.Rand) (restore func()) {
	old := newInputRand
	newInputRand = f
	return func() { newInputRand = old }
}
