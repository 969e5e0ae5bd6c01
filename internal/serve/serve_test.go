package serve

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/plan"
)

// tinyModel is a fast single-module network for lifecycle tests: its
// whole verification run takes a few milliseconds, so the tests exercise
// real execution without the Table-2 backbones' cost.
func tinyModel() graph.Network {
	return graph.Network{
		Name: "tiny",
		Modules: []plan.Bottleneck{{
			Name: "M0", H: 8, W: 8, Cin: 4, Cmid: 16, Cout: 4,
			R: 3, S: 3, S1: 1, S2: 1, S3: 1,
		}},
	}
}

// peakOf returns a network's planned whole-network peak — the admission
// currency the server reserves per request.
func peakOf(t *testing.T, net graph.Network) int {
	t.Helper()
	np, err := netplan.Plan(net, netplan.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return np.PeakBytes
}

// waitResident polls until the ticket leaves the queue (admitted, running
// or done) so tests can stage deterministic queue contents behind it.
func waitResident(t *testing.T, tk *Ticket) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		switch tk.State() {
		case StateAdmitted, StateRunning, StateDone:
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("request %d never admitted (state %v)", tk.ID(), tk.State())
}

func TestServeLifecycle(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 8
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if tk.State() != StateDone {
			t.Errorf("request %d state = %v, want done", i, tk.State())
		}
		if res.Run == nil || !res.Run.AllVerified || res.Run.Violations != 0 {
			t.Errorf("request %d not verified: %+v", i, res.Run)
		}
		if res.Device != "m4" || res.Model != "tiny" || res.PeakBytes <= 0 {
			t.Errorf("request %d result %+v", i, res)
		}
		if res.Latency <= 0 || res.QueueWait < 0 || res.QueueWait > res.Latency {
			t.Errorf("request %d timing: wait %v latency %v", i, res.QueueWait, res.Latency)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Submitted != n || m.Completed != n || m.Failed != 0 {
		t.Errorf("metrics %d submitted / %d completed / %d failed, want %d/%d/0", m.Submitted, m.Completed, m.Failed, n, n)
	}
	if m.QueueDepth != 0 || m.ThroughputRPS <= 0 || m.LatencyP50 <= 0 || m.LatencyP99 < m.LatencyP50 {
		t.Errorf("metrics snapshot inconsistent: %+v", m)
	}
	d := m.Devices[0]
	if d.UsedBytes != 0 || d.Residents != 0 || d.Active != 0 {
		t.Errorf("drained device still holds state: %+v", d)
	}
	if d.PeakUsedBytes <= 0 || d.PeakUsedBytes > d.CapacityBytes {
		t.Errorf("device peak %d outside (0, %d]", d.PeakUsedBytes, d.CapacityBytes)
	}
	if m.Cache.Hits == 0 {
		t.Error("plan cache never hit across repeated submissions")
	}
	// Submissions after Close are explicitly rejected.
	if _, err := s.Submit("tiny", SubmitOptions{}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: %v, want ErrClosed", err)
	}
}

func TestServeRejections(t *testing.T) {
	vwwPeak := peakOf(t, graph.VWW())
	s, err := NewServer(Options{
		Devices:  []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), PoolBytes: vwwPeak, Slots: 1}},
		QueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A model whose peak exceeds every pool is rejected at registration.
	if err := s.Register("imagenet", graph.ImageNet(), ModelConfig{}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized model registration: %v, want ErrTooLarge", err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("nope", SubmitOptions{}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: %v, want ErrUnknownModel", err)
	}

	// Occupy the whole pool with one VWW run, then fill the queue: the
	// bounded queue must shed the overflow submission.
	busy, err := s.Submit("vww", SubmitOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitResident(t, busy)
	q1, err := s.Submit("tiny", SubmitOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit("tiny", SubmitOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit("tiny", SubmitOptions{Seed: 4}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("overflow submit: %v, want ErrQueueFull", err)
	}
	// Cancel one queued request; the other drains normally on Close.
	if !q2.Cancel() {
		t.Error("cancel of queued request failed")
	}
	if _, err := q2.Result(); !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled result: %v, want ErrCanceled", err)
	}
	if q2.Cancel() {
		t.Error("second cancel succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range []*Ticket{busy, q1} {
		if _, err := tk.Result(); err != nil {
			t.Errorf("request %d: %v", tk.ID(), err)
		}
	}
	m := s.Metrics()
	if m.RejectedQueueFull != 1 || m.Canceled != 1 || m.Completed != 2 {
		t.Errorf("metrics %+v: want 1 queue-full, 1 canceled, 2 completed", m)
	}
}

func TestServeDeadlineShed(t *testing.T) {
	vwwPeak := peakOf(t, graph.VWW())
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), PoolBytes: vwwPeak, Slots: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	// Per-model deadline: every "impatient" request sheds after 10ms.
	if err := s.Register("impatient", tinyModel(), ModelConfig{MaxQueueWait: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// The gate holds the first execution, the VWW run, until the
	// impatient request has its verdict; later executions pass.
	var held atomic.Bool
	gate := newExecGate(func(*device) bool { return held.CompareAndSwap(false, true) })
	s.testExecGate = gate.hook
	busy, err := s.Submit("vww", SubmitOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitResident(t, busy)
	gate.waitHeld(t, 1)
	// The pool is fully reserved by the held VWW run, so the impatient
	// request cannot be admitted before its deadline.
	shed, err := s.Submit("impatient", SubmitOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shed.Result(); !errors.Is(err, ErrDeadline) {
		t.Errorf("deadline result: %v, want ErrDeadline", err)
	}
	if shed.State() != StateRejected {
		t.Errorf("shed state = %v, want rejected", shed.State())
	}
	close(gate.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := busy.Result(); err != nil {
		t.Error(err)
	}
	if m := s.Metrics(); m.ShedDeadline != 1 || m.Completed != 1 {
		t.Errorf("metrics %+v: want 1 shed, 1 completed", m)
	}
}

// TestServePropertyConcurrentSubmitCancel is the server-level over-commit
// property test: a pool sized for exactly three co-resident tiny requests,
// hammered by concurrent submitters and cancelers (run with -race). The
// ledger must never exceed the pool, and every accepted submission must
// resolve to exactly one terminal outcome — nothing lost, nothing
// double-counted.
func TestServePropertyConcurrentSubmitCancel(t *testing.T) {
	tinyPeak := peakOf(t, tinyModel())
	pool := 3 * tinyPeak
	s, err := NewServer(Options{
		Devices:  []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), PoolBytes: pool, Slots: 3}},
		QueueCap: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var tickets []*Ticket
	var fullRejects uint64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < 12; i++ {
				tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(g*100 + i)})
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("goroutine %d: %v", g, err)
					} else {
						mu.Lock()
						fullRejects++
						mu.Unlock()
					}
					continue
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
				if rng.Intn(2) == 0 {
					tk.Cancel() // racing the dispatcher is the point
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var done, canceled uint64
	for _, tk := range tickets {
		_, err := tk.Result()
		switch {
		case err == nil:
			done++
		case errors.Is(err, ErrCanceled):
			canceled++
		default:
			t.Errorf("request %d: unexpected outcome %v", tk.ID(), err)
		}
	}
	m := s.Metrics()
	if m.Submitted != uint64(len(tickets)) {
		t.Errorf("submitted %d != %d tickets", m.Submitted, len(tickets))
	}
	if m.Submitted != m.Completed+m.Failed+m.Canceled+m.ShedDeadline {
		t.Errorf("lost requests: %d submitted vs %d+%d+%d+%d resolved",
			m.Submitted, m.Completed, m.Failed, m.Canceled, m.ShedDeadline)
	}
	if m.Completed != done || m.Canceled != canceled || m.Failed != 0 {
		t.Errorf("outcome counts: metrics %d/%d/%d vs observed %d/%d",
			m.Completed, m.Canceled, m.Failed, done, canceled)
	}
	if m.RejectedQueueFull != fullRejects {
		t.Errorf("queue-full rejects: metrics %d vs observed %d", m.RejectedQueueFull, fullRejects)
	}
	d := m.Devices[0]
	if d.PeakUsedBytes > pool {
		t.Errorf("OVER-COMMIT: peak %d exceeded pool %d", d.PeakUsedBytes, pool)
	}
	if d.UsedBytes != 0 || d.Residents != 0 {
		t.Errorf("pool not drained: %+v", d)
	}
	if d.PeakUsedBytes < 2*tinyPeak {
		t.Errorf("co-residency never happened: peak %d < 2×%d", d.PeakUsedBytes, tinyPeak)
	}
}

// TestServeFleet64MixedConcurrent is the acceptance bar: 64 concurrent
// mixed VWW+ImageNet requests on a two-device fleet (Cortex-M4 128 KB +
// Cortex-M7 512 KB), every request fully verified, zero pool over-commits
// (sampled continuously), and zero lost requests. Run with -race.
func TestServeFleet64MixedConcurrent(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{
			{Name: "m4", Profile: mcu.CortexM4(), Slots: 8},
			{Name: "m7", Profile: mcu.CortexM7(), Slots: 8},
		},
		QueueCap: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("imagenet", graph.ImageNet(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}

	// Continuous over-commit monitor, alongside the ledger's own invariant.
	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, d := range s.Metrics().Devices {
				if d.UsedBytes > d.CapacityBytes {
					t.Errorf("OVER-COMMIT on %s: %d used of %d", d.Name, d.UsedBytes, d.CapacityBytes)
					return
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	const total, imagenets = 64, 4
	tickets := make([]*Ticket, total)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += 8 {
				name := "vww"
				if i < imagenets {
					name = "imagenet"
				}
				tk, err := s.Submit(name, SubmitOptions{Seed: int64(i)})
				if err != nil {
					t.Errorf("submit %d (%s): %v", i, name, err)
					return
				}
				tickets[i] = tk
			}
		}(g)
	}
	wg.Wait()

	for i, tk := range tickets {
		if tk == nil {
			continue // submit error already reported
		}
		res, err := tk.Result()
		if err != nil {
			t.Errorf("request %d (%s): %v", i, tk.Model(), err)
			continue
		}
		if res.Run == nil || !res.Run.AllVerified || res.Run.Violations != 0 {
			t.Errorf("request %d (%s) on %s: not verified", i, tk.Model(), res.Device)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	monitor.Wait()

	m := s.Metrics()
	if m.Submitted != total || m.Completed != total ||
		m.Failed != 0 || m.Canceled != 0 || m.ShedDeadline != 0 || m.RejectedQueueFull != 0 {
		t.Errorf("lost requests: %+v", m)
	}
	if m.QueueDepth != 0 {
		t.Errorf("queue not drained: depth %d", m.QueueDepth)
	}
	if m.ThroughputRPS <= 0 || m.LatencyP50 <= 0 || m.LatencyP95 < m.LatencyP50 || m.LatencyP99 < m.LatencyP95 {
		t.Errorf("throughput/latency snapshot inconsistent: %.2f rps, p50 %v p95 %v p99 %v",
			m.ThroughputRPS, m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	vwwPeak := peakOf(t, graph.VWW())
	maxPeakUsed, fleetCompleted := 0, uint64(0)
	for _, d := range m.Devices {
		if d.PeakUsedBytes > d.CapacityBytes {
			t.Errorf("OVER-COMMIT on %s: peak %d of %d", d.Name, d.PeakUsedBytes, d.CapacityBytes)
		}
		if d.UsedBytes != 0 || d.Residents != 0 || d.Active != 0 {
			t.Errorf("device %s not drained: %+v", d.Name, d)
		}
		if d.PeakUsedBytes > maxPeakUsed {
			maxPeakUsed = d.PeakUsedBytes
		}
		fleetCompleted += d.Completed
	}
	if fleetCompleted != total {
		t.Errorf("per-device completions sum to %d, want %d", fleetCompleted, total)
	}
	// The point of the subsystem: models actually co-reside in one pool.
	if maxPeakUsed < 2*vwwPeak {
		t.Errorf("no co-residency observed: max device peak %d < 2×VWW peak %d", maxPeakUsed, vwwPeak)
	}
	t.Logf("fleet served %d requests at %.1f req/s; p50=%v p95=%v p99=%v; max pool peak %.1f%%",
		m.Completed, m.ThroughputRPS, m.LatencyP50, m.LatencyP95, m.LatencyP99,
		100*float64(maxPeakUsed)/float64(mcu.CortexM7().RAMBytes()))
}

// TestServeDryRunFlood floods the admission machinery with more requests
// than the simulated kernels could ever execute in test time, proving the
// queue/ledger path stands alone: every request resolves, nothing leaks.
func TestServeDryRunFlood(t *testing.T) {
	s, err := NewServer(Options{
		Devices:  []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4(), Slots: 4}},
		QueueCap: 2048,
		Mode:     ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := s.Submit("vww", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Run != nil {
			t.Fatal("dry run executed kernels")
		}
	}
	m := s.Metrics()
	if m.Completed != n || m.Failed != 0 {
		t.Errorf("dry-run flood: %+v", m)
	}
	if m.Devices[0].UsedBytes != 0 || m.Devices[0].Residents != 0 {
		t.Errorf("pool leaked: %+v", m.Devices[0])
	}
}
