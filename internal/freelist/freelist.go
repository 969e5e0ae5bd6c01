// Package freelist keeps idle host objects (simulated devices, executor
// and kernel scratch) for reuse across runs.
//
// A sync.Pool is the usual tool, but it fits a warm verified run badly:
// its Get misses an item parked in another P's private slot, so a loaded
// host builds fresh items while idle ones wait, and a collection drops
// its items. Each miss rebuilds a ~1 MB device or regrows buffers that
// had reached the largest unit. A List hands out any idle item it holds,
// so it holds as many items as runs were ever concurrent, and a warm run
// builds none.
package freelist

import "sync"

// List is a stack of idle items, safe for concurrent use. The zero value
// is an empty list.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops the most recently released item, or reports false when the
// list is empty.
func (l *List[T]) Get() (it T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return it, false
	}
	it = l.items[n-1]
	clear(l.items[n-1:])
	l.items = l.items[:n-1]
	return it, true
}

// Put pushes an idle item.
func (l *List[T]) Put(it T) {
	l.mu.Lock()
	l.items = append(l.items, it)
	l.mu.Unlock()
}

// Clear drops every idle item.
func (l *List[T]) Clear() {
	l.mu.Lock()
	l.items = nil
	l.mu.Unlock()
}
