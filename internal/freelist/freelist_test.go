package freelist

import (
	"sync"
	"testing"
)

func TestGetReturnsLastPut(t *testing.T) {
	var l List[*int]
	if _, ok := l.Get(); ok {
		t.Fatal("empty list returned an item")
	}
	a, b := new(int), new(int)
	l.Put(a)
	l.Put(b)
	if got, _ := l.Get(); got != b {
		t.Error("Get did not return the last item put")
	}
	if got, _ := l.Get(); got != a {
		t.Error("second Get did not return the first item put")
	}
	l.Put(a)
	l.Clear()
	if _, ok := l.Get(); ok {
		t.Error("cleared list returned an item")
	}
}

// TestConcurrentRunsShareItems checks the property sync.Pool lacks: with
// every item idle between rounds, rounds of concurrent runs reuse the
// items of the first round, whichever goroutine released them.
func TestConcurrentRunsShareItems(t *testing.T) {
	const workers = 4
	var l List[*int]
	var mu sync.Mutex
	built := 0
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		var start sync.WaitGroup
		start.Add(workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				it, ok := l.Get()
				if !ok {
					mu.Lock()
					built++
					mu.Unlock()
					it = new(int)
				}
				start.Done()
				start.Wait() // hold the item until every worker has one
				l.Put(it)
			}()
		}
		wg.Wait()
	}
	if built != workers {
		t.Errorf("built %d items over 50 rounds of %d concurrent runs, want %d", built, workers, workers)
	}
}

func TestWarmGetPutAllocatesNothing(t *testing.T) {
	var l List[*int]
	l.Put(new(int))
	if n := testing.AllocsPerRun(100, func() {
		it, _ := l.Get()
		l.Put(it)
	}); n != 0 {
		t.Errorf("warm Get/Put allocates %.0f times, want 0", n)
	}
}
