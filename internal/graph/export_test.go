package graph

import "sync"

// DropPooledDevices empties every device pool and the harness pool, so the
// next executor run on each RAM size builds its device with mcu.New and
// its host buffers afresh.
func DropPooledDevices() {
	devicePools.Clear()
	harnesses = sync.Pool{}
}
