package graph

import (
	"sync"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

// devicePools holds idle simulated devices, one *sync.Pool per RAM size
// in bytes. A device's RAM and shadow arrays are most of its memory, and
// every executor run needs them at full profile size, so runs hand the
// arrays on instead of rebuilding them.
var devicePools sync.Map

// acquireDevice returns a device in exactly the state mcu.New(p,
// flashBytes) builds: a pooled one restored by Reset, or a new one when
// the pool for p's RAM size is empty. Pair it with releaseDevice once
// nothing reads the device any more.
func acquireDevice(p mcu.Profile, flashBytes int) *mcu.Device {
	if d, ok := devicePool(p.RAMBytes()).Get().(*mcu.Device); ok {
		d.Reset(p, flashBytes)
		return d
	}
	return mcu.New(p, flashBytes)
}

// releaseDevice returns d to the pool for its RAM size.
func releaseDevice(d *mcu.Device) { devicePool(d.RAMSize()).Put(d) }

func devicePool(ramBytes int) *sync.Pool {
	if pl, ok := devicePools.Load(ramBytes); ok {
		return pl.(*sync.Pool)
	}
	pl, _ := devicePools.LoadOrStore(ramBytes, new(sync.Pool))
	return pl.(*sync.Pool)
}
