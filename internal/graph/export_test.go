package graph

import (
	"math/rand"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// DropPooledDevices empties every device pool and the harness pool, so the
// next executor run on each RAM size builds its device with mcu.New and
// its host buffers afresh.
func DropPooledDevices() {
	devicePools.Clear()
	harnesses.Clear()
}

// ExecModuleIn is ExecModule with the unit's pool of poolBytes at RAM
// address base, instead of its own pool at 0; the workspace follows it.
func ExecModuleIn(profile mcu.Profile, mw *ModuleWeights, p plan.Plan, rng *rand.Rand, base, poolBytes int) (ExecResult, error) {
	return execModule(profile, mw, p, rng, poolAt{base, poolBytes})
}

// ExecModuleUnfusedIn is ExecModuleUnfused with the pool placed as in
// ExecModuleIn.
func ExecModuleUnfusedIn(profile mcu.Profile, mw *ModuleWeights, rng *rand.Rand, base, poolBytes int) (ExecResult, error) {
	return execUnfused(profile, mw, rng, poolAt{base, poolBytes})
}
