package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

// execGate deterministically holds executions mid-flight on selected
// devices, the lever the churn acceptance tests use to crash a device
// with provably in-flight work.
type execGate struct {
	release chan struct{}
	held    atomic.Int32
	match   func(d *device) bool
}

func newExecGate(match func(d *device) bool) *execGate {
	return &execGate{release: make(chan struct{}), match: match}
}

func (g *execGate) hook(d *device, _ *request) {
	if !g.match(d) {
		return
	}
	g.held.Add(1)
	<-g.release
}

// waitHeld polls until n executions are blocked inside the gate.
func (g *execGate) waitHeld(t *testing.T, n int32) {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if g.held.Load() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only %d of %d executions reached the gate", g.held.Load(), n)
}

// overCommitMonitor polls the fleet snapshot for the ledger invariant —
// no device's used or peak-used bytes may ever exceed its capacity —
// until stop is closed. Violations is the count it observed.
func overCommitMonitor(s *Server, stop <-chan struct{}, violations *atomic.Int32) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		for _, d := range s.Metrics().Devices {
			if d.UsedBytes > d.CapacityBytes || d.PeakUsedBytes > d.CapacityBytes {
				violations.Add(1)
			}
		}
		time.Sleep(time.Millisecond)
	}
}

// assertAccounting checks the submission ledger: every accepted
// submission resolved into exactly one terminal class.
func assertAccounting(t *testing.T, m Metrics) {
	t.Helper()
	resolved := m.Completed + m.Failed + m.Canceled + m.ShedDeadline + m.DeviceLost
	if m.Submitted != resolved {
		t.Errorf("accounting: submitted %d != resolved %d (completed %d failed %d canceled %d shed %d lost %d)",
			m.Submitted, resolved, m.Completed, m.Failed, m.Canceled, m.ShedDeadline, m.DeviceLost)
	}
}

// TestChurnCrashMidRequestFailover is the churn acceptance test: a
// device crashes with a full complement of in-flight requests and a
// backlog of queued ones. The crash must force-release every reserved
// byte at the instant it happens (CrashDevice returns the abandoned
// count), no ticket may be lost, no pool may ever over-commit, and with
// a surviving device in the fleet every displaced request must fail
// over and complete there.
func TestChurnCrashMidRequestFailover(t *testing.T) {
	net := tinyModel()
	peak := peakOf(t, net)
	const slots = 4
	s, err := NewServer(Options{
		Devices: []DeviceConfig{
			{Name: "doomed", Profile: mcu.CortexM4(), PoolBytes: slots * peak, Slots: slots},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := newExecGate(func(d *device) bool { return d.name == "doomed" })
	s.testExecGate = gate.hook

	stop := make(chan struct{})
	var violations atomic.Int32
	go overCommitMonitor(s, stop, &violations)

	if err := s.Register("tiny", net, ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 12
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// All slots reserve + start executing; the rest stay queued behind
	// the full pool.
	gate.waitHeld(t, slots)

	// The rescue device joins on a different profile — its own shard —
	// before the crash, so failover also exercises cross-shard re-routing.
	if err := s.AddDevice(DeviceConfig{Name: "rescue", Profile: mcu.CortexM7(), PoolBytes: 4 * peak}); err != nil {
		t.Fatal(err)
	}

	abandoned, err := s.CrashDevice("doomed")
	if err != nil {
		t.Fatal(err)
	}
	if abandoned != slots*peak {
		t.Errorf("crash abandoned %d bytes, want the %d reserved by %d in-flight requests",
			abandoned, slots*peak, slots)
	}
	// The dead pool must be fully released at the crash instant, before
	// any doomed execution unwinds.
	for _, d := range s.Metrics().Devices {
		if d.Name == "doomed" {
			t.Errorf("crashed device still in the fleet snapshot")
		}
	}
	close(gate.release)

	for i, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatalf("ticket %d lost to the crash: %v", i, err)
		}
		if res.Device != "rescue" {
			t.Errorf("ticket %d completed on %q, want the surviving device", i, res.Device)
		}
	}
	close(stop)
	if v := violations.Load(); v != 0 {
		t.Errorf("over-commit observed %d times during churn", v)
	}

	m := s.Metrics()
	assertAccounting(t, m)
	if m.Completed != n || m.DeviceLost != 0 {
		t.Errorf("completed %d, deviceLost %d; want %d and 0", m.Completed, m.DeviceLost, n)
	}
	if m.Requeued != n {
		t.Errorf("requeued %d, want %d (every request displaced exactly once)", m.Requeued, n)
	}
	if m.DeviceCrashes != 1 {
		t.Errorf("deviceCrashes %d, want 1", m.DeviceCrashes)
	}
}

// TestChurnCrashNoSurvivorResolvesDeviceLost crashes the only device:
// every in-flight and queued request must resolve with ErrDeviceLost —
// zero lost tickets — and a later AddDevice must restore service.
func TestChurnCrashNoSurvivorResolvesDeviceLost(t *testing.T) {
	net := tinyModel()
	peak := peakOf(t, net)
	const slots = 2
	s, err := NewServer(Options{
		Devices: []DeviceConfig{
			{Name: "only", Profile: mcu.CortexM4(), PoolBytes: slots * peak, Slots: slots},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := newExecGate(func(d *device) bool { return d.name == "only" })
	s.testExecGate = gate.hook

	if err := s.Register("tiny", net, ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 5
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	gate.waitHeld(t, slots)

	abandoned, err := s.CrashDevice("only")
	if err != nil {
		t.Fatal(err)
	}
	if abandoned != slots*peak {
		t.Errorf("crash abandoned %d bytes, want %d", abandoned, slots*peak)
	}
	close(gate.release)

	for i, tk := range tickets {
		if _, err := tk.Result(); !errors.Is(err, ErrDeviceLost) {
			t.Errorf("ticket %d resolved with %v, want ErrDeviceLost", i, err)
		}
		if st := tk.State(); st != StateDeviceLost {
			t.Errorf("ticket %d state %v, want device-lost", i, st)
		}
	}
	m := s.Metrics()
	assertAccounting(t, m)
	if m.DeviceLost != n || m.Requeued != 0 || m.Completed != 0 {
		t.Errorf("deviceLost %d requeued %d completed %d; want %d, 0, 0",
			m.DeviceLost, m.Requeued, m.Completed, n)
	}

	// With the fleet empty, submissions are rejected (no usable pool).
	if _, err := s.Submit("tiny", SubmitOptions{}); !errors.Is(err, ErrDeviceLost) {
		t.Errorf("submit to empty fleet: %v, want ErrDeviceLost", err)
	}
	// Service resumes once a replacement joins — same profile, so it
	// lands in the crashed device's (now empty) shard.
	if err := s.AddDevice(DeviceConfig{Name: "replacement", Profile: mcu.CortexM4(), PoolBytes: 2 * peak}); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("tiny", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := tk.Result(); err != nil || res.Device != "replacement" {
		t.Fatalf("post-replacement request: device %q, err %v", res.Device, err)
	}
}

// TestChurnRemoveDeviceDrains checks graceful removal: RemoveDevice
// blocks until the device's in-flight work completes normally, the
// device leaves the fleet with its name freed for reuse, and the
// surviving device keeps serving.
func TestChurnRemoveDeviceDrains(t *testing.T) {
	net := tinyModel()
	peak := peakOf(t, net)
	s, err := NewServer(Options{
		Devices: []DeviceConfig{
			{Name: "a", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1},
			{Name: "b", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := newExecGate(func(*device) bool { return true })
	s.testExecGate = gate.hook

	if err := s.Register("tiny", net, ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	// One request per single-slot device: both end up held mid-flight.
	tk1, err := s.Submit("tiny", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tk2, err := s.Submit("tiny", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gate.waitHeld(t, 2)

	removed := make(chan error, 1)
	go func() { removed <- s.RemoveDevice("a") }()

	// The drain must be visible (device marked draining) and must NOT
	// complete while its request is still in flight.
	draining := false
	for i := 0; i < 10000 && !draining; i++ {
		for _, d := range s.Metrics().Devices {
			if d.Name == "a" && d.Draining {
				draining = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	if !draining {
		t.Fatal("draining device never reported Draining in the snapshot")
	}
	select {
	case err := <-removed:
		t.Fatalf("RemoveDevice returned (%v) with a request still in flight", err)
	default:
	}

	close(gate.release)
	if err := <-removed; err != nil {
		t.Fatalf("RemoveDevice: %v", err)
	}
	if _, err := tk1.Result(); err != nil {
		t.Errorf("request during drain: %v", err)
	}
	if _, err := tk2.Result(); err != nil {
		t.Errorf("request on surviving device: %v", err)
	}
	for _, d := range s.Metrics().Devices {
		if d.Name == "a" {
			t.Error("removed device still in the fleet snapshot")
		}
	}
	if err := s.RemoveDevice("a"); err == nil {
		t.Error("removing an already-removed device succeeded")
	}

	// The name is free again, and the re-added device serves.
	if err := s.AddDevice(DeviceConfig{Name: "a", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1}); err != nil {
		t.Fatalf("re-adding a drained device's name: %v", err)
	}
	tk3, err := s.Submit("tiny", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk3.Result(); err != nil {
		t.Errorf("request after re-add: %v", err)
	}
	m := s.Metrics()
	assertAccounting(t, m)
	if m.Completed != 3 {
		t.Errorf("completed %d, want 3", m.Completed)
	}
}

// TestDegradedModeSaturation floods a shard past its degrade threshold:
// the mode must engage (and be visible in the snapshot), admissions made
// while degraded must be counted, nothing may be shed, the sojourn p99
// must stay bounded, and the mode must disengage once the backlog
// drains (hysteresis).
func TestDegradedModeSaturation(t *testing.T) {
	net := tinyModel()
	peak := peakOf(t, net)
	s, err := NewServer(Options{
		Devices: []DeviceConfig{
			{Name: "dev", Profile: mcu.CortexM4(), PoolBytes: 3 * peak, Slots: 2},
		},
		QueueCap:     64,
		DegradeDepth: 8,
		Mode:         ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := newExecGate(func(*device) bool { return true })
	s.testExecGate = gate.hook

	if err := s.Register("tiny", net, ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	tickets := make([]*Ticket, 0, n)
	for i := 0; i < n; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	// Both slots held; the backlog (18 queued > DegradeDepth 8) has
	// engaged degraded mode before any drain begins.
	gate.waitHeld(t, 2)
	mid := s.Metrics()
	if len(mid.Shards) != 1 || !mid.Shards[0].Degraded {
		t.Fatalf("shard not degraded at depth %d (threshold 8)", mid.QueueDepth)
	}
	if mid.DegradedEngaged == 0 {
		t.Error("degradedEngaged not counted")
	}

	close(gate.release)
	for i, tk := range tickets {
		if _, err := tk.Result(); err != nil {
			t.Fatalf("ticket %d under saturation: %v", i, err)
		}
	}
	m := s.Metrics()
	assertAccounting(t, m)
	if m.Completed != n || m.ShedDeadline != 0 {
		t.Errorf("completed %d shed %d; want %d served, nothing shed", m.Completed, m.ShedDeadline, n)
	}
	if m.DegradedAdmissions == 0 {
		t.Error("no admissions counted as degraded while draining the backlog")
	}
	if m.LatencyP99 <= 0 || m.LatencyP99 > 30*time.Second {
		t.Errorf("p99 %v not bounded", m.LatencyP99)
	}
	// Hysteresis: the drained shard must have disengaged.
	if m.Shards[0].Degraded {
		t.Error("shard still degraded after the backlog drained")
	}
}

// TestDegradedAdmissionPicksSmallestVariant pins the degraded-mode
// selection policy at the admission step: a degraded shard admits the
// smallest-peak variant even when a faster, larger one fits, and a
// healthy shard keeps picking the fastest fitting one.
func TestDegradedAdmissionPicksSmallestVariant(t *testing.T) {
	mdl := &model{
		name:    "two-variant",
		minPeak: 20,
		variants: []modelVariant{
			// Fast but large vs slow but small: cycle counts priced via
			// ALU ops under the device profile.
			{desc: "fast-large", peak: 80, stats: mcu.Stats{ALUOps: 10}},
			{desc: "slow-small", peak: 20, stats: mcu.Stats{ALUOps: 1000}},
		},
	}
	for _, tc := range []struct {
		degraded bool
		want     string
	}{
		{degraded: false, want: "fast-large"},
		{degraded: true, want: "slow-small"},
	} {
		t.Run(fmt.Sprintf("degraded=%v", tc.degraded), func(t *testing.T) {
			s, sh, d := bareShard(t, 100, 4)
			s.mode = ExecDryRun
			d.profile = mcu.CortexM4()
			req := queued(1, mdl.minPeak, 0)
			req.mdl = mdl
			req.srv = s
			req.submitted = time.Now()
			sh.mu.Lock()
			sh.degraded = tc.degraded
			s.admitLocked(sh, d, req)
			sh.mu.Unlock()
			res, err := (&Ticket{r: req}).Result()
			if err != nil {
				t.Fatal(err)
			}
			if res.Variant != tc.want {
				t.Errorf("admitted variant %q, want %q", res.Variant, tc.want)
			}
			s.execs.Wait()
		})
	}
}

// TestDegradedModeHysteresis drives the engage/disengage thresholds
// directly: engage at depth >= degradeDepth, disengage only at half.
func TestDegradedModeHysteresis(t *testing.T) {
	s, sh, _ := bareShard(t, 1000, 1)
	s.degradeDepth = 4
	sh.mu.Lock()
	defer sh.mu.Unlock()
	reqs := make([]*request, 0, 4)
	for i := 0; i < 4; i++ {
		r := queued(uint64(i), 10, 0)
		reqs = append(reqs, r)
		s.enqueueLocked(sh, r)
	}
	if !sh.degraded || sh.hDegradedEngaged.Value() != 1 {
		t.Fatalf("depth 4 with threshold 4: degraded=%v engaged=%d", sh.degraded, sh.hDegradedEngaged.Value())
	}
	// Falling to 3 (> half) must NOT disengage — no flapping at the edge.
	sh.q.remove(reqs[3])
	sh.noteQueueChangedLocked(s.degradeDepth)
	if !sh.degraded {
		t.Fatal("disengaged above the half-threshold hysteresis floor")
	}
	// Falling to 2 (== half) disengages.
	sh.q.remove(reqs[2])
	sh.noteQueueChangedLocked(s.degradeDepth)
	if sh.degraded {
		t.Fatal("still degraded at half the threshold")
	}
	// Climbing back re-engages and counts a second engagement.
	for i := 4; i < 6; i++ {
		s.enqueueLocked(sh, queued(uint64(i), 10, 0))
	}
	if !sh.degraded || sh.hDegradedEngaged.Value() != 2 {
		t.Fatalf("re-engage: degraded=%v engaged=%d", sh.degraded, sh.hDegradedEngaged.Value())
	}
}
