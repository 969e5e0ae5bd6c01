package serve

import (
	"fmt"
	"sync"
	"time"

	"github.com/vmcu-project/vmcu/internal/mcu"
)

// Device churn: the fleet is mutable while the server runs.
//
//   - AddDevice grows a shard (or creates one for a new profile) and
//     starts the device's dispatcher; queued work starts flowing to it on
//     the next wake-up.
//   - RemoveDevice drains gracefully: the device stops taking work,
//     RemoveDevice blocks until its in-flight requests finish (every
//     ledger byte released by the normal completion path), then drops it.
//   - CrashDevice simulates failure mid-request: the device is dropped
//     immediately and its ledger abandoned — every reserved byte is
//     force-released at the instant of the crash, so the pool accounting
//     never depends on doomed executions unwinding. Each in-flight
//     request is re-queued once onto a surviving device, or resolved with
//     ErrDeviceLost.
//
// Either way, when a shard's largest usable pool shrinks, queued requests
// no surviving device could ever admit are evacuated and re-routed to
// other shards (or resolved with ErrDeviceLost), so nothing waits forever
// on a device that is gone.

// AddDevice adds one device to the running fleet, creating a new shard if
// no existing device shares its profile. The device's dispatcher starts
// immediately.
func (s *Server) AddDevice(cfg DeviceConfig) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	d, err := s.addDeviceLocked(cfg)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	go s.dispatch(d)
	return nil
}

// addDeviceLocked creates the device, places it in its profile's shard
// (creating the shard if needed), and accounts it in the dispatcher wait
// group — the caller starts the goroutine after releasing Server.mu.
// Runs with Server.mu held.
func (s *Server) addDeviceLocked(cfg DeviceConfig) (*device, error) {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("dev%d", s.devSeq)
	}
	s.devSeq++
	if s.devNames[name] {
		return nil, fmt.Errorf("serve: duplicate device name %q", name)
	}
	pool := cfg.PoolBytes
	if pool == 0 {
		pool = cfg.Profile.RAMBytes()
	}
	led, err := NewLedger(pool)
	if err != nil {
		return nil, fmt.Errorf("serve: device %s: %w", name, err)
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = DefaultSlots
	}
	var sh *shard
	for _, cand := range s.shards {
		if cand.profile == cfg.Profile {
			sh = cand
			break
		}
	}
	if sh == nil {
		sh = s.newShardLocked(cfg.Profile)
	}
	d := &device{name: name, profile: cfg.Profile, ledger: led, slots: slots, sh: sh}
	d.hPoolUsed = s.ins.poolUsed.With(name, sh.key)
	d.hPoolCap = s.ins.poolCap.With(name, sh.key)
	d.hPoolCap.Set(float64(pool))
	d.tracePoolUsed()
	sh.mu.Lock()
	sh.devices = append(sh.devices, d)
	sh.updatePoolMaxLocked()
	sh.mu.Unlock()
	s.devNames[name] = true
	if pool > s.maxPool {
		s.maxPool = pool
		s.refProfile = cfg.Profile
	}
	s.dispatchers.Add(1)
	return d, nil
}

// newShardLocked creates the device group for profile, resolves its
// metric handles, and appends it to the shard set. Runs with Server.mu
// held.
func (s *Server) newShardLocked(profile mcu.Profile) *shard {
	sh := &shard{srv: s, index: len(s.shards), key: profile.Name, profile: profile}
	sh.cond = sync.NewCond(&sh.mu)
	sh.hQueueDepth = s.ins.queueDepth.With(sh.key)
	sh.hQueueHighWater = s.ins.queueHighWater.With(sh.key)
	sh.hDegraded = s.ins.degraded.With(sh.key)
	sh.hRequeued = s.ins.requeued.With(sh.key)
	sh.hVariantUpgrades = s.ins.variantUpgrades.With(sh.key)
	sh.hDegradedAdmissions = s.ins.degradedAdmissions.With(sh.key)
	sh.hDegradedEngaged = s.ins.degradedEngaged.With(sh.key)
	sh.hBudgetMet = s.ins.latencyBudget.With(sh.key, "met")
	sh.hBudgetMissed = s.ins.latencyBudget.With(sh.key, "missed")
	sh.hDeviceCrashes = s.ins.deviceCrashes.With(sh.key)
	s.shards = append(s.shards, sh)
	return sh
}

// RemoveDevice drains one device gracefully: it stops taking new work,
// blocks until every in-flight request on it has finished (ledger empty),
// then drops it from the fleet. Queued requests only the removed device's
// pool could hold are evacuated and re-routed.
func (s *Server) RemoveDevice(name string) error {
	sh, d := s.findDevice(name)
	if d == nil {
		return fmt.Errorf("serve: unknown device %q", name)
	}
	sh.mu.Lock()
	if d.dead || d.removed || d.draining {
		sh.mu.Unlock()
		return fmt.Errorf("serve: device %q already removed or crashed", name)
	}
	d.draining = true
	sh.updatePoolMaxLocked()
	sh.cond.Broadcast()
	for d.active > 0 && !d.dead {
		sh.cond.Wait()
	}
	if d.dead {
		// Crashed while draining; CrashDevice already dropped it.
		sh.mu.Unlock()
		return fmt.Errorf("serve: device %q crashed during drain", name)
	}
	if res := d.ledger.Residents(); res != 0 {
		// Cannot happen: every release precedes the active-- it unblocks.
		sh.mu.Unlock()
		return fmt.Errorf("serve: device %q drained with %d residents", name, res)
	}
	d.removed = true
	sh.dropDeviceLocked(d)
	// The device is gone: zero its gauges so the scrape reflects a fleet
	// without it rather than freezing the last observed values.
	d.hPoolUsed.Set(0)
	d.hPoolCap.Set(0)
	evacuated := sh.q.drainOver(int(sh.poolMax.Load()))
	for _, req := range evacuated {
		s.traceEvacuated(sh, req)
	}
	sh.noteQueueChangedLocked(s.degradeDepth)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	s.forgetDeviceName(name)
	s.reroute(evacuated, name)
	return nil
}

// CrashDevice simulates one device failing mid-request: it is dropped
// from its shard immediately and its ledger abandoned. The abandoned byte
// count is returned so callers (and tests) can prove the pool was fully
// released at the instant of the crash. In-flight requests fail over —
// re-queued once onto a surviving device, or resolved with ErrDeviceLost
// — when their (void) executions unwind; queued requests no surviving
// pool can hold are evacuated and re-routed.
func (s *Server) CrashDevice(name string) (abandonedBytes int, err error) {
	sh, d := s.findDevice(name)
	if d == nil {
		return 0, fmt.Errorf("serve: unknown device %q", name)
	}
	sh.mu.Lock()
	if d.dead || d.removed {
		sh.mu.Unlock()
		return 0, fmt.Errorf("serve: device %q already removed or crashed", name)
	}
	d.dead = true
	sh.dropDeviceLocked(d)
	bytes, _ := d.ledger.Abandon()
	d.hPoolUsed.Set(0)
	d.hPoolCap.Set(0)
	sh.hDeviceCrashes.Inc()
	evacuated := sh.q.drainOver(int(sh.poolMax.Load()))
	for _, req := range evacuated {
		s.traceEvacuated(sh, req)
	}
	sh.noteQueueChangedLocked(s.degradeDepth)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	s.forgetDeviceName(name)
	s.reroute(evacuated, name)
	return bytes, nil
}

// findDevice locates a live device by name, returning its shard.
func (s *Server) findDevice(name string) (*shard, *device) {
	s.mu.Lock()
	shards := append([]*shard(nil), s.shards...)
	s.mu.Unlock()
	for _, sh := range shards {
		sh.mu.Lock()
		for _, d := range sh.devices {
			if d.name == name {
				sh.mu.Unlock()
				return sh, d
			}
		}
		sh.mu.Unlock()
	}
	return nil, nil
}

// forgetDeviceName frees a removed device's name for reuse.
func (s *Server) forgetDeviceName(name string) {
	s.mu.Lock()
	delete(s.devNames, name)
	s.mu.Unlock()
}

// failover handles an in-flight request whose device died under it: one
// re-queue attempt onto a surviving device, then ErrDeviceLost. Runs in
// the request's executor goroutine, which owns the request exclusively
// here.
func (s *Server) failover(d *device, req *request) {
	req.requeues++
	if req.requeues <= 1 && s.requeue(req, d.name) {
		return
	}
	s.resolveDeviceLost(d.sh, req, d.name)
}

// reroute re-routes requests evacuated from a shrunken shard queue,
// resolving those no shard can take with ErrDeviceLost.
func (s *Server) reroute(reqs []*request, from string) {
	for _, req := range reqs {
		if !s.requeue(req, from) {
			s.resolveDeviceLost(nil, req, from)
		}
	}
}

// requeue routes a request displaced by device churn onto the
// least-loaded shard that can hold its minimal peak, reporting success.
// The admission deadline (and its armed timer) carries over: a request
// whose deadline passes while it waits again is shed normally.
func (s *Server) requeue(req *request, from string) bool {
	req.peak = req.mdl.minPeak
	for _, sh := range s.shardsByDepth(req.peak) {
		sh.mu.Lock()
		if sh.closed ||
			int(sh.poolMax.Load()) < req.peak ||
			sh.q.count >= s.queueCap {
			sh.mu.Unlock()
			continue
		}
		s.traceRequeue(sh, req, from)
		s.enqueueLocked(sh, req)
		sh.mu.Unlock()
		return true
	}
	return false
}

// resolveDeviceLost terminally resolves a request stranded by churn. sh
// names the shard the loss is charged to (nil picks the request's last
// home shard, falling back to the first — shards are never removed, so
// one always exists).
func (s *Server) resolveDeviceLost(sh *shard, req *request, devName string) {
	if sh == nil {
		idx := int(req.shardIdx.Load())
		s.mu.Lock()
		if idx < 0 || idx >= len(s.shards) {
			idx = 0
		}
		sh = s.shards[idx]
		s.mu.Unlock()
	}
	s.traceDeviceLost(sh, req, devName)
	req.resolve(Result{
		Model:     req.mdl.name,
		Device:    devName,
		PeakBytes: req.peak,
		Latency:   time.Since(req.submitted),
	}, fmt.Errorf("%w: device %s", ErrDeviceLost, devName), StateDeviceLost)
}
