package serve

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// bareShard builds a dispatcherless server with one single-device shard
// for deterministic unit tests of the queue/admission helpers (which run
// under shard.mu in production; these tests are single-goroutine).
func bareShard(t *testing.T, pool, slots int) (*Server, *shard, *device) {
	t.Helper()
	led, err := NewLedger(pool)
	if err != nil {
		t.Fatal(err)
	}
	s := &Server{
		queueCap:     16,
		degradeDepth: 17, // disabled: depth never exceeds queueCap
		models:       make(map[string]*model),
		devNames:     make(map[string]bool),
		reg:          obs.NewRegistry(),
	}
	s.ins = newServeInstruments(s.reg)
	sh := s.newShardLocked(mcu.Profile{Name: "test"})
	d := &device{name: "dev", ledger: led, slots: slots, sh: sh}
	sh.devices = []*device{d}
	sh.updatePoolMaxLocked()
	s.devNames["dev"] = true
	return s, sh, d
}

var queuedSeq uint64

func queued(id uint64, peak, priority int) *request {
	queuedSeq++
	return &request{
		id: id, peak: peak, priority: priority, seq: queuedSeq,
		mdl:    &model{name: "m"},
		doneCh: make(chan struct{}),
	}
}

func TestTakePriorityAndFIFO(t *testing.T) {
	var q prioQueue
	a, b, c, e := queued(1, 10, 0), queued(2, 10, 5), queued(3, 10, 5), queued(4, 10, 1)
	for _, r := range []*request{a, b, c, e} {
		q.push(r)
	}

	// Highest priority first; FIFO between the two priority-5 entries.
	for i, want := range []*request{b, c, e, a} {
		got := q.take(100)
		if got != want {
			t.Fatalf("take %d: got id %d, want id %d", i, got.id, want.id)
		}
	}
	if q.take(100) != nil {
		t.Error("empty queue yielded a request")
	}
	if q.count != 0 || len(q.classes) != 0 {
		t.Errorf("drained queue: count=%d classes=%d", q.count, len(q.classes))
	}
}

func TestTakeSkipsOversized(t *testing.T) {
	var q prioQueue
	big, small := queued(1, 90, 9), queued(2, 30, 0)
	q.push(big)
	q.push(small)
	// Only 60 bytes free: the high-priority 90-byte request must not
	// head-of-line block the 30-byte one.
	if got := q.take(60); got != small {
		t.Fatalf("got id %d, want the small request", got.id)
	}
	if got := q.take(60); got != nil {
		t.Fatalf("oversized request admitted with 60 free: id %d", got.id)
	}
	if got := q.take(100); got != big {
		t.Fatal("freed pool did not admit the big request")
	}
}

func TestTakeFIFOAcrossPeakBuckets(t *testing.T) {
	// Same priority, different peaks: selection across the peak buckets
	// must still be enqueue order, not bucket order.
	var q prioQueue
	first, second, third := queued(1, 50, 0), queued(2, 10, 0), queued(3, 50, 0)
	for _, r := range []*request{first, second, third} {
		q.push(r)
	}
	for i, want := range []*request{first, second, third} {
		if got := q.take(100); got != want {
			t.Fatalf("take %d: got id %d, want id %d", i, got.id, want.id)
		}
	}
}

func TestRingGrowthPreservesFIFOAndRemoval(t *testing.T) {
	var r ring
	var reqs []*request
	for i := 0; i < 5; i++ {
		req := queued(uint64(i), 10, 0)
		reqs = append(reqs, req)
		r.push(req)
	}
	// Pop two, push enough to wrap and grow: absolute positions must
	// survive both.
	for i := 0; i < 2; i++ {
		if got := r.pop(); got != reqs[i] {
			t.Fatalf("pop %d: got id %d", i, got.id)
		}
	}
	for i := 5; i < 30; i++ {
		req := queued(uint64(i), 10, 0)
		reqs = append(reqs, req)
		r.push(req)
	}
	// Remove one from the middle (the cancel path) by its stored position.
	victim := reqs[11]
	if !r.remove(victim) {
		t.Fatal("positional remove failed after growth")
	}
	if r.remove(victim) {
		t.Fatal("double remove succeeded")
	}
	for i := 2; i < 30; i++ {
		if i == 11 {
			continue
		}
		got := r.pop()
		if got != reqs[i] {
			t.Fatalf("pop: got id %d, want id %d", got.id, reqs[i].id)
		}
	}
	if r.pop() != nil {
		t.Error("drained ring yielded a request")
	}
}

func TestShedExpired(t *testing.T) {
	s, sh, _ := bareShard(t, 100, 1)
	now := time.Now()
	fresh := queued(1, 10, 0)
	fresh.deadline = now.Add(time.Hour)
	stale := queued(2, 10, 0)
	stale.deadline = now.Add(-time.Millisecond)
	forever := queued(3, 10, 0) // zero deadline: never shed
	for _, r := range []*request{fresh, stale, forever} {
		s.enqueueLocked(sh, r)
	}

	s.finishShed(now, s.shedExpiredLocked(sh, now, nil))
	if sh.q.count != 2 {
		t.Fatalf("queue after shed has %d entries, want 2", sh.q.count)
	}
	select {
	case <-stale.doneCh:
	default:
		t.Fatal("shed request not resolved")
	}
	if _, err := (&Ticket{r: stale}).Result(); !errors.Is(err, ErrDeadline) {
		t.Errorf("shed error = %v, want ErrDeadline", err)
	}
	if State(stale.state.Load()) != StateRejected {
		t.Errorf("shed state = %v, want rejected", State(stale.state.Load()))
	}
	if n := s.ins.outcomes.With("m", "test", outcomeShedDeadline).Value(); n != 1 {
		t.Errorf("shed-deadline outcomes = %d, want 1", n)
	}
}

// TestShedBoundaryInstantInclusive pins the deadline-boundary bugfix: a
// request whose deadline equals the shed-scan instant is shed in THAT
// scan. The former now.After(deadline) comparison let it survive one
// extra dispatch round.
func TestShedBoundaryInstantInclusive(t *testing.T) {
	s, sh, _ := bareShard(t, 100, 1)
	now := time.Now()
	atBoundary := queued(1, 10, 0)
	atBoundary.deadline = now
	s.enqueueLocked(sh, atBoundary)

	s.finishShed(now, s.shedExpiredLocked(sh, now, nil))
	select {
	case <-atBoundary.doneCh:
	default:
		t.Fatal("request with deadline == scan instant survived the scan")
	}
	if _, err := (&Ticket{r: atBoundary}).Result(); !errors.Is(err, ErrDeadline) {
		t.Errorf("boundary shed error = %v, want ErrDeadline", err)
	}
	if sh.q.count != 0 {
		t.Errorf("queue depth after boundary shed = %d, want 0", sh.q.count)
	}
}

func TestDrainOverEvacuatesByPeak(t *testing.T) {
	var q prioQueue
	small, mid, large := queued(1, 10, 0), queued(2, 40, 3), queued(3, 90, 0)
	for _, r := range []*request{small, mid, large} {
		q.push(r)
	}
	out := q.drainOver(40)
	if len(out) != 1 || out[0] != large {
		t.Fatalf("drainOver(40) evacuated %d requests, want only the 90-byte one", len(out))
	}
	if q.count != 2 {
		t.Errorf("count after partial drain = %d, want 2", q.count)
	}
	out = q.drainOver(0)
	if len(out) != 2 || q.count != 0 {
		t.Fatalf("drainOver(0) evacuated %d, count now %d", len(out), q.count)
	}
}

// TestQueueRemovalReleasesRequests is the regression test for the
// retention bug family: every removal path (dispatcher take, cancel,
// deadline shed) must leave no reference to the removed request in the
// queue's backing storage. The old slice-based queue failed this —
// append(q[:i], q[i+1:]...) and the kept := q[:0] shed filter both left
// stale pointers in the array tail, so a long-lived server pinned every
// request it had ever served. With finalizer accounting, that old code
// collects (close to) none of the removed requests; the ring-based queue
// must collect (close to) all of them while the queue value itself stays
// live.
func TestQueueRemovalReleasesRequests(t *testing.T) {
	const n = 64
	var freed atomic.Int32
	var q prioQueue
	mdl := &model{name: "m"}
	alloc := func(id uint64, prio int, deadline time.Time) *request {
		queuedSeq++
		r := &request{
			id: id, peak: 10, priority: prio, seq: queuedSeq,
			deadline: deadline, mdl: mdl, doneCh: make(chan struct{}),
		}
		runtime.SetFinalizer(r, func(*request) { freed.Add(1) })
		return r
	}

	// Batch 1 leaves via the dispatcher (take), batch 2 via cancel
	// (positional remove), batch 3 via deadline shed.
	for i := 0; i < n; i++ {
		q.push(alloc(uint64(i), 0, time.Time{}))
	}
	cancels := make([]*request, 0, n)
	for i := n; i < 2*n; i++ {
		r := alloc(uint64(i), 1, time.Time{})
		cancels = append(cancels, r)
		q.push(r)
	}
	expired := time.Now().Add(-time.Hour)
	for i := 2 * n; i < 3*n; i++ {
		q.push(alloc(uint64(i), 2, expired))
	}

	q.shed(time.Now(), func(*request) {})
	for _, r := range cancels {
		if !q.remove(r) {
			t.Fatal("cancel-path remove failed")
		}
	}
	cancels = nil
	for q.take(100) != nil {
	}
	if q.count != 0 {
		t.Fatalf("queue not empty after removals: %d", q.count)
	}

	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < 3*n-4 && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	// A register/stack root may keep a stray request alive; the bug this
	// pins retained ALL of them, so near-complete collection is the
	// signal.
	if got := freed.Load(); got < 3*n-4 {
		t.Fatalf("only %d of %d removed requests were collected — queue retains freed requests", got, 3*n)
	}
	// The queue itself must still be live when collection happens, or the
	// test would pass vacuously by freeing the whole structure.
	runtime.KeepAlive(&q)
}
