package graph

// DropPooledDevices empties every device pool, so the next executor run on
// each RAM size builds its device with mcu.New.
func DropPooledDevices() { devicePools.Clear() }
