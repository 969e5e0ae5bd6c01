package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// shard is one device group's admission domain. Devices sharing an
// mcu.Profile form a group with its own queue, lock, condition variable,
// and metric handles, so dispatchers of one group never contend with
// another group's submit/dispatch traffic — the whole-fleet Server.mu
// bottleneck is gone. Requests are routed to the least-loaded eligible
// shard at submit time; within a shard, devices still work-steal from the
// shared shard queue.
//
// Lock order: Server.mu before shard.mu; never two shard locks at once.
type shard struct {
	srv     *Server
	index   int    // position in Server.shards; stable (the slice is append-only)
	key     string // group identity: the shared profile's name
	profile mcu.Profile

	// depth mirrors the queued-request count and poolMax the largest
	// usable (neither draining nor dead) device pool, for lock-free
	// routing reads. The authoritative values live under shard.mu; the
	// mirrors are refreshed by every mutation and re-checked under the
	// lock before an enqueue commits.
	depth   atomic.Int64
	poolMax atomic.Int64

	mu       sync.Mutex
	cond     *sync.Cond
	devices  []*device // guarded by shard.mu
	q        prioQueue // guarded by shard.mu
	seq      uint64    // enqueue sequence, the FIFO tiebreak; guarded by shard.mu
	degraded bool      // guarded by shard.mu
	closed   bool      // guarded by shard.mu

	// Labeled metric handles for this shard's labelset, resolved once at
	// shard creation. The handles are immutable; the instruments carry
	// their own synchronization. hQueueHighWater is only set under
	// shard.mu, so its read-compare-set in enqueueLocked cannot race.
	hQueueDepth         *obs.Gauge
	hQueueHighWater     *obs.Gauge
	hDegraded           *obs.Gauge
	hRequeued           *obs.Counter
	hVariantUpgrades    *obs.Counter
	hDegradedAdmissions *obs.Counter
	hDegradedEngaged    *obs.Counter
	hBudgetMet          *obs.Counter
	hBudgetMissed       *obs.Counter
	hDeviceCrashes      *obs.Counter

	// Per-model counter handles for the two per-request counters bumped
	// while holding shard.mu (enqueue's submitted, deadline-shed's
	// outcome). Resolved lazily on first use and cached so the steady
	// state skips With()'s per-call label-key allocation under the lock.
	// Guarded by shard.mu.
	hSubmittedByModel map[*model]*obs.Counter
	hShedByModel      map[*model]*obs.Counter
}

// submittedCounterLocked returns the cached submitted-total handle for
// (model, shard), resolving it on first use. Runs with shard.mu held.
func (sh *shard) submittedCounterLocked(m *model) *obs.Counter {
	if h, ok := sh.hSubmittedByModel[m]; ok {
		return h
	}
	h := sh.srv.ins.submitted.With(m.name, sh.key)
	if sh.hSubmittedByModel == nil {
		sh.hSubmittedByModel = make(map[*model]*obs.Counter)
	}
	sh.hSubmittedByModel[m] = h
	return h
}

// shedCounterLocked returns the cached shed-deadline outcome handle for
// (model, shard). Runs with shard.mu held.
func (sh *shard) shedCounterLocked(m *model) *obs.Counter {
	if h, ok := sh.hShedByModel[m]; ok {
		return h
	}
	h := sh.srv.ins.outcomes.With(m.name, sh.key, outcomeShedDeadline)
	if sh.hShedByModel == nil {
		sh.hShedByModel = make(map[*model]*obs.Counter)
	}
	sh.hShedByModel[m] = h
	return h
}

// updatePoolMaxLocked refreshes the routing mirror of the largest usable
// device pool. Runs with shard.mu held.
func (sh *shard) updatePoolMaxLocked() {
	max := 0
	for _, d := range sh.devices {
		if d.draining || d.dead || d.removed {
			continue
		}
		if c := d.ledger.Capacity(); c > max {
			max = c
		}
	}
	sh.poolMax.Store(int64(max))
}

// noteQueueChangedLocked refreshes the depth mirror and applies the
// degraded-mode hysteresis after any queue mutation: engage when the
// depth reaches degradeDepth, disengage only once it falls to half that,
// so the mode doesn't flap at the threshold. Runs with shard.mu held.
func (sh *shard) noteQueueChangedLocked(degradeDepth int) {
	sh.depth.Store(int64(sh.q.count))
	sh.hQueueDepth.Set(float64(sh.q.count))
	if !sh.degraded && sh.q.count >= degradeDepth {
		sh.degraded = true
		sh.hDegradedEngaged.Inc()
		sh.hDegraded.Set(1)
	} else if sh.degraded && sh.q.count <= degradeDepth/2 {
		sh.degraded = false
		sh.hDegraded.Set(0)
	}
}

// dropDeviceLocked removes d from the shard's device list (drain complete
// or crash) and refreshes the pool mirror. Runs with shard.mu held.
func (sh *shard) dropDeviceLocked(d *device) {
	for i, dd := range sh.devices {
		if dd == d {
			sh.devices = append(sh.devices[:i], sh.devices[i+1:]...)
			break
		}
	}
	sh.updatePoolMaxLocked()
}

// shardsByDepth snapshots the shard set ordered by queue depth (shallow
// first), dropping shards whose largest usable pool cannot hold peak.
// The mirrors it reads are advisory; enqueue re-checks under shard.mu.
func (s *Server) shardsByDepth(peak int) []*shard {
	s.mu.Lock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		if int(sh.poolMax.Load()) >= peak {
			shards = append(shards, sh)
		}
	}
	s.mu.Unlock()
	sort.SliceStable(shards, func(i, j int) bool {
		return shards[i].depth.Load() < shards[j].depth.Load()
	})
	return shards
}

// enqueueLocked commits req to sh's queue: lifecycle state, shard
// routing index, FIFO sequence, high-water mark, degraded-mode check, and
// the dispatcher wake-up. Runs with shard.mu held.
func (s *Server) enqueueLocked(sh *shard, req *request) {
	req.setState(StateQueued)
	req.shardIdx.Store(int32(sh.index))
	sh.seq++
	req.seq = sh.seq
	sh.q.push(req)
	if depth := float64(sh.q.count); depth > sh.hQueueHighWater.Value() {
		sh.hQueueHighWater.Set(depth)
	}
	sh.noteQueueChangedLocked(s.degradeDepth)
	sh.cond.Broadcast()
}

// shedExpiredLocked removes every queued request whose admission
// deadline has been reached (inclusive boundary — see prioQueue.shed)
// and appends them to shed, which the caller MUST pass to finishShed
// once the shard lock is released — until then the shed tickets are
// unresolved. Runs with shard.mu held.
func (s *Server) shedExpiredLocked(sh *shard, now time.Time, shed []*request) []*request {
	sh.q.shed(now, func(req *request) {
		s.traceShedLocked(sh, req)
		shed = append(shed, req)
	})
	sh.noteQueueChangedLocked(s.degradeDepth)
	return shed
}

// finishShed completes deadline-shed requests after the shard lock is
// released. The shed removed each request from the queue under the lock,
// so the shedding dispatcher is its sole owner here: closing the span
// tree, the flight-recorder flush, and the ticket resolve all run off
// the admission lock — a mass shed on a deep queue no longer serializes
// every dispatcher behind tracer work.
func (s *Server) finishShed(now time.Time, shed []*request) {
	for _, req := range shed {
		s.traceShedFinish(req)
		req.resolve(Result{
			Model:     req.mdl.name,
			PeakBytes: req.peak,
			Latency:   now.Sub(req.submitted),
		}, ErrDeadline, StateRejected)
	}
}
