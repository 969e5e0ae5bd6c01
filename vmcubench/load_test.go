package main

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/serve"
)

// fakeClock advances only when the generator sleeps or a submission
// stalls; only the generator goroutine touches it.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// An open-loop latency runs from the request's due time: a stall in one
// submission is charged to every request it delays.
func TestOpenLoopChargesLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const served = 200 * time.Microsecond
	submit := func(i uint64) (func() (serve.Result, error), string, error) {
		switch i {
		case 3:
			return nil, "vww", fmt.Errorf("shard busy: %w", serve.ErrQueueFull)
		case 5:
			clk.Sleep(4500 * time.Microsecond) // Submit stalls for 4.5 ms
		}
		return func() (serve.Result, error) {
			if i == 4 {
				return serve.Result{}, serve.ErrDeadline
			}
			return serve.Result{Latency: served, PeakBytes: 1000 + int(i)}, nil
		}, "vww", nil
	}
	st := openLoop(clk, 1000, 20*time.Millisecond, submit, nil)

	if st.attempted != 20 || st.completed != 18 || st.rejected != 1 || st.shed != 1 || st.failed != 0 {
		t.Fatalf("attempted %d completed %d rejected %d shed %d failed %d, want 20 18 1 1 0",
			st.attempted, st.completed, st.rejected, st.shed, st.failed)
	}
	if st.rps != 900 || st.maxPeak != 1019 {
		t.Errorf("rps %v maxPeak %d, want 900 and 1019", st.rps, st.maxPeak)
	}
	// Request 5 leaves on time and stalls the generator until 9.5 ms, so
	// requests 6..9 (due at 6..9 ms) leave 3.5, 2.5, 1.5 and 0.5 ms late.
	var want []float64
	for i := 0; i < 20; i++ {
		if i == 3 || i == 4 {
			continue
		}
		lag := 0.0
		if i >= 6 && i <= 9 {
			lag = 9.5 - float64(i)
		}
		want = append(want, lag+ms(served))
	}
	if len(st.windows) != 1 || len(st.windows[0]) != len(want) {
		t.Fatalf("latency windows %v, want one window of %d", st.windows, len(want))
	}
	for k, got := range st.windows[0] {
		if math.Abs(got-want[k]) > 1e-9 {
			t.Errorf("latency %d = %v ms, want %v ms", k, got, want[k])
		}
	}
}
