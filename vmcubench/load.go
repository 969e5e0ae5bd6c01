package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/serve"
)

// loadStats is what the load generator saw in one timed phase.
type loadStats struct {
	attempted, completed, shed, rejected, failed int
	// rps is the rate of correct completions: in the open loop, those
	// inside the timed phase over its length; in the closed loop, the sum
	// over clients of each client's completions over the time to its last
	// one, which no request cut off at the end of the phase quantises.
	rps float64
	// windows holds each completed request's latency in milliseconds, by
	// the 1-s window of the phase it was due in.
	windows [][]float64
	// lagMs is how late each request was sent, in milliseconds (traced
	// runs only): after its due time in the open loop, after the client's
	// previous completion in the closed loop.
	lagMs   []float64
	maxPeak int      // largest PeakBytes a completed request reserved
	bad     []string // the first correctness failures
}

func (st *loadStats) latency(window int, ms float64) {
	for len(st.windows) <= window {
		st.windows = append(st.windows, nil)
	}
	st.windows[window] = append(st.windows[window], ms)
}

// badLimit bounds the failures a run keeps for its report.
const badLimit = 5

func (st *loadStats) fail(err error) {
	st.failed++
	if len(st.bad) < badLimit {
		st.bad = append(st.bad, err.Error())
	}
}

func (st *loadStats) merge(o *loadStats) {
	st.attempted += o.attempted
	st.completed += o.completed
	st.shed += o.shed
	st.rejected += o.rejected
	st.failed += o.failed
	st.rps += o.rps
	for w, xs := range o.windows {
		for _, x := range xs {
			st.latency(w, x)
		}
	}
	st.lagMs = append(st.lagMs, o.lagMs...)
	st.maxPeak = max(st.maxPeak, o.maxPeak)
	for _, b := range o.bad {
		if len(st.bad) < badLimit {
			st.bad = append(st.bad, b)
		}
	}
}

func (st *loadStats) latencies() []float64 {
	var all []float64
	for _, w := range st.windows {
		all = append(all, w...)
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// spanClock places wall times on a tracer's clock, so requests timed by
// the benchmark become spans the exporter lines up with everything else.
type spanClock struct {
	tr   *obs.Tracer
	base int64
	t0   time.Time
}

func newSpanClock(tr *obs.Tracer) *spanClock {
	return &spanClock{tr: tr, base: tr.Now(), t0: time.Now()}
}

func (c *spanClock) ns(t time.Time) int64 { return c.base + int64(t.Sub(c.t0)) }

// request records one served request as a span tree: the root runs from
// its due time to completion, with the generator's lag, the timed Submit
// call, and the queue and execution stages derived from the Result.
func (c *spanClock) request(model string, due, sent, sentEnd time.Time, res serve.Result) {
	admitted := sent.Add(res.QueueWait)
	done := sent.Add(res.Latency)
	id := c.tr.Emit(obs.SpanData{Name: "serve.request", Kind: obs.KindRequest,
		Start: c.ns(due), End: c.ns(done), Attrs: []obs.Attr{obs.Str("model", model)}})
	child := func(name, layer string, a, b time.Time) {
		c.tr.Emit(obs.SpanData{Parent: id, Trace: id, Name: name, Kind: layer, Start: c.ns(a), End: c.ns(b)})
	}
	if sent.After(due) {
		child("bench.lag", "bench", due, sent)
	}
	child("serve.Submit", "serve", sent, sentEnd)
	child("serve.queue", "serve", sent, admitted)
	child("serve.exec", "serve", admitted, done)
}

// floodTraceEvery is the share of open-loop requests a traced run records.
const floodTraceEvery = 100

// closedLoop runs w.clients clients against s for dur: each sends its next
// request only after the previous one completes. check validates every
// completed request; sc, when set, records every request as a span tree.
func closedLoop(s *serve.Server, w workload, seed int64, dur time.Duration,
	check func(i uint64, res serve.Result) error, sc *spanClock) *loadStats {
	var next atomic.Uint64
	per := make([]*loadStats, w.clients)
	start := time.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	for c := range per {
		st := &loadStats{}
		per[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for {
				sent := time.Now()
				if !sent.Before(end) {
					return
				}
				i := next.Add(1) - 1
				rq := w.request(seed, i)
				st.attempted++
				tk, err := s.Submit(rq.model, serve.SubmitOptions{Seed: rq.seed})
				sentEnd := time.Now()
				var res serve.Result
				if err == nil {
					res, err = tk.Result()
				}
				done := time.Now()
				if err == nil {
					err = check(i, res)
				}
				if err != nil {
					st.fail(fmt.Errorf("request %d (%s): %w", i, rq.model, err))
					prev = done
					continue
				}
				st.completed++
				st.rps = float64(st.completed) / done.Sub(start).Seconds()
				st.maxPeak = max(st.maxPeak, res.PeakBytes)
				st.latency(int(sent.Sub(start)/time.Second), ms(done.Sub(sent)))
				if sc != nil {
					st.lagMs = append(st.lagMs, ms(sent.Sub(prev)))
					sc.request(rq.model, sent, sent, sentEnd, res)
				}
				prev = done
			}
		}()
	}
	wg.Wait()
	total := &loadStats{}
	for _, st := range per {
		total.merge(st)
	}
	return total
}

// clock is the open-loop generator's time source, faked in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks in nanosleep: time.Sleep rounds short sleeps up to the
// runtime poller's 1 ms granularity, which would send the flood in 1-ms
// bursts, while nanosleep wakes within the kernel's ~50 µs timer slack.
// An early return on a signal only makes the generator check again.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller re-reads the clock
}

// submitFunc sends request i and returns the wait for its result.
type submitFunc func(i uint64) (wait func() (serve.Result, error), model string, err error)

// submission is one request handed from the generator to the collector.
type submission struct {
	i              uint64
	model          string
	due, at, atEnd time.Time
	wait           func() (serve.Result, error)
	err            error
}

// submissionBuffer decouples the generator from the collector: three times the
// backlog a 100 ms admission deadline allows at the flood rate, so the
// generator never waits on a collector stuck behind a slow ticket.
const submissionBuffer = 1 << 14

// openLoop sends requests on a fixed schedule of rate per second for dur,
// whatever the completions do, from one generator goroutine; one collector
// goroutine waits for the results. Each latency runs from the request's
// due time, so a stall is charged to every request it delays. sc, when
// set, records every floodTraceEvery-th request as a span tree.
func openLoop(clk clock, rate float64, dur time.Duration, submit submitFunc, sc *spanClock) *loadStats {
	st := &loadStats{}
	inWindow := 0
	ch := make(chan submission, submissionBuffer)
	start := clk.Now()
	end := start.Add(dur)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for p := range ch {
			st.attempted++
			lag := p.at.Sub(p.due)
			if sc != nil {
				st.lagMs = append(st.lagMs, ms(lag))
			}
			if p.err != nil {
				if errors.Is(p.err, serve.ErrQueueFull) {
					st.rejected++
				} else {
					st.fail(fmt.Errorf("submit %d: %w", p.i, p.err))
				}
				continue
			}
			res, err := p.wait()
			switch {
			case errors.Is(err, serve.ErrDeadline):
				st.shed++
				continue
			case err != nil:
				st.fail(fmt.Errorf("request %d: %w", p.i, err))
				continue
			}
			st.completed++
			done := p.at.Add(res.Latency)
			if !done.After(end) {
				inWindow++
			}
			st.maxPeak = max(st.maxPeak, res.PeakBytes)
			st.latency(int(p.due.Sub(start)/time.Second), ms(lag+res.Latency))
			if sc != nil && p.i%floodTraceEvery == 0 {
				sc.request(p.model, p.due, p.at, p.atEnd, res)
			}
		}
	}()
	interval := float64(time.Second) / rate
	for i := uint64(0); ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if !due.Before(end) {
			break
		}
		now := clk.Now()
		if now.Before(due) {
			clk.Sleep(due.Sub(now))
			now = clk.Now()
		}
		wait, model, err := submit(i)
		ch <- submission{i: i, model: model, due: due, at: now, atEnd: clk.Now(), wait: wait, err: err}
	}
	close(ch)
	wg.Wait()
	st.rps = float64(inWindow) / dur.Seconds()
	return st
}
