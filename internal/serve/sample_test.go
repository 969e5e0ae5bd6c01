package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// sampledServer builds a server over one default m4 device with flight
// recording and head sampling at the given rate.
func sampledServer(t *testing.T, rate float64) (*Server, *obs.Tracer) {
	t.Helper()
	tr := obs.New(obs.Options{})
	tr.EnableFlight(obs.FlightOptions{})
	tr.EnableSampling(obs.SamplerOptions{Rate: rate, Seed: 7})
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	return s, tr
}

// TestSampledRequestsAreCollected is the pooling leak regression: with
// head sampling on, a completed request must become garbage once its
// ticket is dropped — no recycled span buffer, flight structure, or
// sampler state may pin it. Runs at the pure-unsampled rate, the mixed
// rate, and the full-tracing rate, since each takes a different buffer
// path through flightDone.
func TestSampledRequestsAreCollected(t *testing.T) {
	for _, rate := range []float64{0, 0.5, 1} {
		t.Run(fmt.Sprintf("rate=%v", rate), func(t *testing.T) {
			s, tr := sampledServer(t, rate)
			const n = 48
			var freed atomic.Int32
			for i := 0; i < n; i++ {
				tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tk.Result(); err != nil {
					t.Fatal(err)
				}
				runtime.SetFinalizer(tk.r, func(*request) { freed.Add(1) })
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for freed.Load() < n-4 && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(time.Millisecond)
			}
			// A register/stack root may keep a stray request alive; the bug
			// class this guards against retains ALL of them.
			if got := freed.Load(); got < n-4 {
				t.Fatalf("only %d of %d finished requests were collected with sampling at %v", got, n, rate)
			}
			// The tracer (with its pooled buffers, span ring, and flight
			// state) must still be live when collection happens, or the test
			// passes vacuously by freeing the whole graph.
			runtime.KeepAlive(tr)
		})
	}
}

// TestAlwaysKeepClassesCapturedAtTinyRate drives the interesting-outcome
// classes — deadline shed, queue-full rejection, device loss — through a
// server sampling heads at 0.1%, and checks every instance is counted
// and each class leaves a flight exemplar: head sampling must never cost
// visibility into failures.
func TestAlwaysKeepClassesCapturedAtTinyRate(t *testing.T) {
	tr := obs.New(obs.Options{})
	tr.EnableFlight(obs.FlightOptions{})
	tr.EnableSampling(obs.SamplerOptions{Rate: 0.001, Seed: 7})
	peak := peakOf(t, tinyModel())
	s, err := NewServer(Options{
		Devices:  []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1}},
		QueueCap: 1,
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two requests are held mid-flight, since a tiny request finishes in
	// microseconds: the slot occupier until the queue scenarios are
	// staged behind it, and the stranded one until its device crashed.
	const occupySeed, lostSeed = 1, 20
	occupy := newExecGate(func(*device) bool { return true })
	lost := newExecGate(func(*device) bool { return true })
	s.testExecGate = func(d *device, r *request) {
		switch r.seed {
		case occupySeed:
			occupy.hook(d, r)
		case lostSeed:
			lost.hook(d, r)
		}
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot so later submissions queue.
	tk1, err := s.Submit("tiny", SubmitOptions{Seed: occupySeed})
	if err != nil {
		t.Fatal(err)
	}
	occupy.waitHeld(t, 1)

	// One deadline shed: already expired, the next dispatcher scan drops it.
	tkShed, err := s.Submit("tiny", SubmitOptions{Seed: 2, Deadline: time.Now().Add(-time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tkShed.Result(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("shed request resolved with %v, want ErrDeadline", err)
	}

	// Fill the queue, then bounce a burst off it.
	tkQueued, err := s.Submit("tiny", SubmitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	const rejected = 5
	for i := 0; i < rejected; i++ {
		if _, err := s.Submit("tiny", SubmitOptions{Seed: int64(10 + i)}); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("overflow submit %d: %v, want ErrQueueFull", i, err)
		}
	}
	if !tkQueued.Cancel() {
		t.Fatal("cancel lost the race against admission")
	}
	close(occupy.release)
	if _, err := tk1.Result(); err != nil {
		t.Fatal(err)
	}

	// Strand one request on a crashing device with no survivor to absorb it.
	tkLost, err := s.Submit("tiny", SubmitOptions{Seed: lostSeed})
	if err != nil {
		t.Fatal(err)
	}
	lost.waitHeld(t, 1)
	if _, err := s.CrashDevice("m4"); err != nil {
		t.Fatal(err)
	}
	close(lost.release)
	if _, err := tkLost.Result(); !errors.Is(err, ErrDeviceLost) {
		t.Fatalf("stranded request resolved with %v, want ErrDeviceLost", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	st := tr.SamplerStats()
	want := map[string]uint64{"deadline": 1, "queue-full": rejected, "device-lost": 1}
	for class, n := range want {
		if got := st.ClassKept[class]; got < n {
			t.Errorf("ClassKept[%s] = %d, want >= %d — an interesting outcome escaped the sampler", class, got, n)
		}
	}
	reasons := map[string]bool{}
	for _, ft := range tr.FlightSnapshot().Traces {
		reasons[ft.Reason] = true
	}
	for class := range want {
		if !reasons[class] {
			t.Errorf("flight ring holds no %q exemplar at 0.1%% head rate (have %v)", class, reasons)
		}
	}
}

// TestUnsampledCountersOnlyPath pins the rate-0 contract: with every head
// dropped (and tail keeps disabled), metrics still see 100% of traffic
// while zero span trees, zero unit spans and zero flight exemplars are
// produced. The model registers its Pareto frontier, whose variant
// options carry the tracer the planner ran under: execution must still
// record nothing for an unsampled request.
func TestUnsampledCountersOnlyPath(t *testing.T) {
	tr := obs.New(obs.Options{})
	tr.EnableFlight(obs.FlightOptions{})
	tr.EnableSampling(obs.SamplerOptions{Rate: 0, KeepClasses: []string{}})
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{Pareto: true}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	snap := tr.Snapshot()
	if got := sumFamily(snap, metricSubmitted, map[string]string{"model": "tiny"}); got != n {
		t.Errorf("submitted counter = %d, want %d — metrics must see all traffic at rate 0", got, n)
	}
	if got := sumFamily(snap, metricOutcomes, map[string]string{"outcome": outcomeDone}); got != n {
		t.Errorf("done outcomes = %d, want %d", got, n)
	}
	if latFam := findFamily(snap, metricLatencyMs); latFam == nil || len(latFam.Series) != 1 ||
		latFam.Series[0].Hist == nil || latFam.Series[0].Hist.Count != n {
		t.Errorf("latency histogram must count all %d completions at rate 0", n)
	}
	if trees := collectTrees(snap); len(trees) != 0 {
		t.Errorf("rate 0 recorded %d span trees, want none", len(trees))
	}
	for _, sp := range snap.Spans {
		if sp.Kind == obs.KindUnit {
			t.Fatalf("rate 0 recorded unit span %s", sp.Name)
		}
	}
	fs := tr.FlightSnapshot()
	if len(fs.Traces) != 0 || fs.Stats.Retained != 0 {
		t.Errorf("rate 0 retained %d flight traces (%d in ring), want none",
			fs.Stats.Retained, len(fs.Traces))
	}
	if st := tr.SamplerStats(); st.Seen != n || st.Kept != 0 {
		t.Errorf("sampler saw %d kept %d, want %d/0", st.Seen, st.Kept, n)
	}
}

// TestConcurrentSampledServing floods a sampled server from several
// goroutines under the race detector: the mixed sampled/unsampled
// terminal paths (pooled tree flushes interleaved with counters-only
// exits) must be race-clean, and the decision count must match the
// offered load exactly.
func TestConcurrentSampledServing(t *testing.T) {
	s, tr := sampledServer(t, 0.5)
	const goroutines = 4
	const per = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*per)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(g*per + i)})
				if err != nil {
					errs <- err
					return
				}
				if _, err := tk.Result(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := tr.SamplerStats()
	if st.Seen != goroutines*per {
		t.Errorf("sampler saw %d decisions, want %d", st.Seen, goroutines*per)
	}
	if st.Kept == 0 || st.Kept == st.Seen {
		t.Errorf("rate 0.5 kept %d of %d — expected a genuine mix of both paths", st.Kept, st.Seen)
	}
	// Every kept head flushed a full tree; every tree flush recycled its
	// buffer. The span storage must hold exactly the kept trees.
	if trees := collectTrees(tr.Snapshot()); uint64(len(trees)) != st.Kept {
		t.Errorf("span storage holds %d request trees, sampler kept %d", len(trees), st.Kept)
	}
}
