// Package serve is the multi-tenant inference serving subsystem: it runs
// many concurrent requests for multiple registered models across a
// simulated fleet of MCU devices, each with a fixed SRAM pool, using the
// whole-network planner's exact per-plan peak as the admission currency.
//
// The pieces, bottom to top:
//
//   - Pool ledger (Ledger). Each device tracks reservations byte-exactly;
//     a request is admitted only when its cached NetworkPlan peak fits the
//     pool's remaining bytes. Co-resident models whose peaks pack together
//     share one SRAM pool; over-commit is impossible by construction
//     (TryReserve refuses reservations past capacity).
//   - Sharded admission. Devices sharing an mcu.Profile form a device
//     group (shard) with its own bounded priority queue, lock, and
//     metric handles, so dispatchers never contend across groups.
//     Submissions are routed to the least-loaded shard whose largest
//     usable pool fits the request: shed-on-full at submit, strict
//     priority with FIFO within a priority (per-priority FIFO rings
//     indexed by peak — see queue.go), and per-request admission
//     deadlines (defaulted per model) shed lazily whenever a dispatcher
//     scans.
//   - Work-stealing dispatch. Every device runs one dispatcher goroutine
//     that steals the highest-priority fitting request from its shard's
//     queue whenever the device has free pool bytes and a free slot —
//     there is no static model→device assignment within a group.
//   - Device churn. AddDevice grows the fleet live; RemoveDevice drains a
//     device gracefully; CrashDevice simulates failure mid-request: the
//     dead device's ledger is abandoned (bytes provably released), its
//     in-flight requests are re-queued once onto surviving devices or
//     resolved with ErrDeviceLost, and queued requests no surviving pool
//     can hold are evacuated and re-routed.
//   - Degraded mode. When a shard's queue depth crosses a threshold
//     (Options.DegradeDepth), admission switches from the fastest-fitting
//     Pareto variant to the smallest-peak one — a saturated group packs
//     more co-residents instead of shedding — with hysteresis so the mode
//     doesn't flap.
//   - Async lifecycle. Submit returns a Ticket immediately; the request
//     moves submit → planned → queued → admitted → running → done (or an
//     explicit rejection), every transition observable and every submit
//     guaranteed to resolve — including submit-time rejections, whose
//     tickets-never-issued requests still resolve to a terminal state.
//     Execution is netplan.Run — the bit-exact whole-network verification
//     executor — through the server's bounded plan cache, which also holds
//     each model's weights, drawn on its first verified request; a
//     request's seed picks only its input (ExecDryRun skips the kernels
//     for pure admission-control load tests, and builds no weights).
//   - Metrics. Every counter and gauge lives in always-on obs metric
//     families (instruments.go), exported on /metrics when a tracer is
//     installed. The Metrics snapshot is derived from those families
//     plus live queue and pool state: throughput, trailing-window
//     sojourn-latency percentiles, per-shard queue state, per-device pool
//     utilization, churn and degraded-mode counters, and every rejection
//     class, plus the plan cache's hit/miss/eviction counters.
//
// The whole subsystem is safe under -race; the property tests fuzz the
// ledger invariant (admitted peaks never exceed a pool) under concurrent
// submit/cancel, and the churn acceptance test crashes devices
// mid-request under -race.
package serve

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// ExecMode selects what an admitted request executes.
type ExecMode int

const (
	// ExecVerify (the default) runs netplan.Run: the full bit-exact
	// whole-network verification on the admitting device's profile.
	ExecVerify ExecMode = iota
	// ExecDryRun skips the kernels: the request is planned, admitted, and
	// released without executing, exercising only the admission machinery.
	// Load generators use it to stress queue/ledger behaviour at request
	// rates the simulated kernels could never sustain.
	ExecDryRun
)

// DeviceConfig describes one simulated fleet device.
type DeviceConfig struct {
	// Name identifies the device in results and metrics.
	Name string
	// Profile is the simulated MCU the device's requests execute on.
	// Devices with the same Profile share an admission shard.
	Profile mcu.Profile
	// PoolBytes is the SRAM pool the ledger partitions; 0 uses the
	// profile's full RAM capacity.
	PoolBytes int
	// Slots caps concurrently running requests on the device; 0 uses
	// DefaultSlots. Memory admission is always the ledger's job — slots
	// only bound compute concurrency.
	Slots int
}

// DefaultSlots is the per-device concurrent-run cap when
// DeviceConfig.Slots is 0.
const DefaultSlots = 4

// DefaultQueueCap is the per-shard admission queue bound when
// Options.QueueCap is 0.
const DefaultQueueCap = 256

// DefaultCacheEntries is the plan-cache LRU bound when Options.CacheEntries
// is 0.
const DefaultCacheEntries = 64

// Options configure a Server.
type Options struct {
	// Devices is the simulated fleet; at least one is required. Devices
	// sharing an mcu.Profile form one admission shard.
	Devices []DeviceConfig
	// QueueCap bounds each shard's admission queue (shed-on-full); 0 uses
	// DefaultQueueCap.
	QueueCap int
	// DegradeDepth is the per-shard queue depth at which degraded mode
	// engages: admission switches from the fastest-fitting plan variant
	// to the smallest-peak one, packing more co-residents instead of
	// shedding. It disengages once the depth falls to half the threshold
	// (hysteresis). 0 uses three quarters of QueueCap; negative disables
	// degraded mode.
	DegradeDepth int
	// CacheEntries bounds the server's netplan plan cache (LRU eviction);
	// 0 uses DefaultCacheEntries. Ignored when Cache is set.
	CacheEntries int
	// Cache optionally injects a plan cache (shared with other callers);
	// nil builds a private bounded cache.
	Cache *netplan.Cache
	// Mode selects what admitted requests execute (default ExecVerify).
	Mode ExecMode
	// Tracer opts the server into request-lifecycle tracing (see trace.go
	// for the span tree) and hosts the serving metric families on its
	// registry, so the tracer's snapshot exports them. nil (the default)
	// records no spans; the families then live on a private registry
	// that only Metrics reads.
	Tracer *obs.Tracer
}

// ModelConfig carries a registered model's serving defaults.
type ModelConfig struct {
	// Priority is the default admission priority for the model's
	// requests (higher is sooner; SubmitOptions.Priority overrides).
	Priority int
	// MaxQueueWait is the default admission deadline, relative to
	// submission; 0 means no deadline (SubmitOptions.Deadline overrides).
	MaxQueueWait time.Duration
	// Pareto registers the model's whole plan-variant frontier
	// (netplan.Pareto) instead of only the memory-optimal plan: admission
	// then picks the fastest variant that fits the admitting device's
	// remaining pool bytes, trading spare SRAM for estimated latency (or
	// the smallest-peak variant while the shard is degraded).
	Pareto bool
	// LatencyBudget is the default on-device inference deadline, in
	// simulated device time: a request whose selected variant's estimated
	// latency exceeds it is still served but accounted as a budget miss
	// (SubmitOptions.LatencyBudget overrides; 0 means none).
	LatencyBudget time.Duration
}

// modelVariant is one admissible schedule of a registered model: the
// pinned scheduler options that re-derive it through the plan cache, its
// reservation peak, and its estimated operation counts (priced per device
// profile at admission).
type modelVariant struct {
	desc  string
	opts  netplan.Options
	peak  int
	stats mcu.Stats
}

// model is one registered model: a backbone plus serving defaults and its
// admissible plan variants, fastest first (estimated cycles under the
// fleet's reference profile), fixed at registration. Plans are
// deterministic, so re-solves after cache eviction reproduce them.
type model struct {
	name     string
	net      graph.Network
	cfg      ModelConfig
	variants []modelVariant
	minPeak  int
	// hLatency is the model's labeled sojourn-latency histogram handle,
	// resolved once at registration.
	hLatency *obs.Histogram
}

// pick returns the fastest variant fitting free pool bytes under the
// admitting device's own profile, or nil. Pricing per device matters on a
// heterogeneous fleet: the boards weight the operation classes
// differently (e.g. DivMod is 8× an ALU op on the M4 but 10× on the M7),
// so the registration-time ordering is only a deterministic base order,
// not the per-device ranking.
func (m *model) pick(free int, prof mcu.Profile) *modelVariant {
	var best *modelVariant
	bestCycles := 0.0
	for i := range m.variants {
		v := &m.variants[i]
		if v.peak > free {
			continue
		}
		if c := v.stats.Cycles(prof); best == nil || c < bestCycles ||
			(c == bestCycles && v.peak < best.peak) {
			best, bestCycles = v, c
		}
	}
	return best
}

// pickSmallest returns the smallest-peak variant fitting free pool bytes,
// or nil — degraded-mode admission: a saturated shard trades latency for
// maximum co-residency instead of shedding.
func (m *model) pickSmallest(free int) *modelVariant {
	var best *modelVariant
	for i := range m.variants {
		v := &m.variants[i]
		if v.peak > free {
			continue
		}
		if best == nil || v.peak < best.peak {
			best = v
		}
	}
	return best
}

// device pairs a fleet device with its ledger and dispatch state.
type device struct {
	name    string
	profile mcu.Profile
	ledger  *Ledger
	slots   int
	sh      *shard // home shard; immutable after creation
	// active is the running-request count, guarded by shard.mu.
	active int
	// completed counts finished requests, guarded by shard.mu.
	completed uint64
	// Churn state, guarded by shard.mu: draining refuses new admissions
	// while existing work finishes (RemoveDevice); dead marks a simulated
	// crash (CrashDevice); removed marks the drain's completion.
	draining bool
	dead     bool
	removed  bool
	// Labeled gauge handles for the device's pool occupancy and capacity,
	// resolved once at fleet join.
	hPoolUsed *obs.Gauge
	hPoolCap  *obs.Gauge
}

// Server coordinates admission and execution across the fleet.
type Server struct {
	mode         ExecMode
	cache        *netplan.Cache
	tr           *obs.Tracer      // nil unless Options.Tracer opted in
	reg          *obs.Registry    // the tracer's registry, or a private one
	ins          serveInstruments // metric families on reg
	queueCap     int              // per shard
	degradeDepth int              // per-shard degraded-mode engage threshold
	started      time.Time

	nextID atomic.Uint64 // request id allocator

	mu         sync.Mutex
	models     map[string]*model // guarded by Server.mu
	shards     []*shard          // append-only; membership guarded by Server.mu
	devNames   map[string]bool   // live device names; guarded by Server.mu
	devSeq     int               // default device-name counter; guarded by Server.mu
	maxPool    int               // largest pool ever seen; guarded by Server.mu
	refProfile mcu.Profile       // registration pricing profile; guarded by Server.mu
	closed     bool              // guarded by Server.mu

	// testExecGate, when set (tests only, before any Submit), is called at
	// the top of every execution so churn tests can hold a request
	// mid-flight deterministically.
	testExecGate func(*device, *request)

	dispatchers sync.WaitGroup
	execs       sync.WaitGroup
}

// NewServer builds the fleet, starts one dispatcher per device, and
// returns a serving server ready for Register/Submit.
func NewServer(opts Options) (*Server, error) {
	if len(opts.Devices) == 0 {
		return nil, fmt.Errorf("serve: at least one device is required")
	}
	queueCap := opts.QueueCap
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	degrade := opts.DegradeDepth
	switch {
	case degrade == 0:
		degrade = queueCap * 3 / 4
		if degrade < 1 {
			degrade = 1
		}
	case degrade < 0:
		// Disabled: the queue depth never exceeds queueCap, so the
		// threshold is unreachable.
		degrade = queueCap + 1
	}
	cache := opts.Cache
	if cache == nil {
		entries := opts.CacheEntries
		if entries <= 0 {
			entries = DefaultCacheEntries
		}
		cache = netplan.NewCacheWithCap(entries)
	}
	if opts.Tracer != nil {
		// Mirror the plan cache's hit/miss/eviction counters onto the
		// tracer (vmcu_plancache_*), including for an injected shared cache.
		cache.SetTracer(opts.Tracer)
	}
	s := &Server{
		mode:         opts.Mode,
		cache:        cache,
		tr:           opts.Tracer,
		queueCap:     queueCap,
		degradeDepth: degrade,
		models:       make(map[string]*model),
		devNames:     make(map[string]bool),
		started:      time.Now(),
	}
	// Register the families before any shard or device exists:
	// addDeviceLocked resolves per-shard and per-device handles from them.
	s.reg = opts.Tracer.Registry()
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	s.ins = newServeInstruments(s.reg)
	var devices []*device
	s.mu.Lock()
	for _, dc := range opts.Devices {
		d, err := s.addDeviceLocked(dc)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		devices = append(devices, d)
	}
	s.mu.Unlock()
	for _, d := range devices {
		go s.dispatch(d)
	}
	return s, nil
}

// Register adds a model under name with serving defaults. The model is
// planned immediately (through the plan cache), so registration rejects
// unschedulable networks and models whose minimal peak exceeds every
// device pool (ErrTooLarge) before any request is taken.
//
// With cfg.Pareto the whole plan-variant frontier is registered: every
// non-dominated (peak, estimated cycles, estimated energy) schedule whose
// peak some device pool could ever hold, fastest first. Without it, the
// memory-optimal plan is the model's only variant — the pre-cost-model
// behaviour, still carrying its estimate so latency budgets are accounted
// either way.
func (s *Server) Register(name string, net graph.Network, cfg ModelConfig) error {
	if name == "" {
		return fmt.Errorf("serve: model name must be non-empty")
	}
	variants, err := s.planVariants(net, cfg)
	if err != nil {
		return fmt.Errorf("serve: model %s: %w", name, err)
	}
	minPeak := variants[len(variants)-1].peak
	for _, v := range variants {
		if v.peak < minPeak {
			minPeak = v.peak
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if minPeak > s.maxPool {
		s.ins.tooLarge.Inc()
		return fmt.Errorf("serve: model %s needs %d bytes, largest pool is %d: %w",
			name, minPeak, s.maxPool, ErrTooLarge)
	}
	// Variants no pool could ever admit are unreachable; drop them.
	kept := variants[:0]
	for _, v := range variants {
		if v.peak <= s.maxPool {
			kept = append(kept, v)
		}
	}
	if s.closed {
		return ErrClosed
	}
	if _, dup := s.models[name]; dup {
		return fmt.Errorf("serve: model %s already registered", name)
	}
	s.models[name] = &model{
		name: name, net: net, cfg: cfg, variants: kept, minPeak: minPeak,
		hLatency: s.ins.latency.With(name),
	}
	return nil
}

// planVariants solves a model's admissible schedules, fastest first under
// the fleet's reference profile (the largest-pool device).
func (s *Server) planVariants(net graph.Network, cfg ModelConfig) ([]modelVariant, error) {
	s.mu.Lock()
	ref := s.refProfile
	s.mu.Unlock()
	if !cfg.Pareto {
		np, _, err := s.cache.Plan(net, netplan.Options{Tracer: s.tr})
		if err != nil {
			return nil, err
		}
		est, err := netplan.EstimatePlan(ref, net, np)
		if err != nil {
			return nil, err
		}
		return []modelVariant{{desc: "min-peak", opts: netplan.Options{}, peak: np.PeakBytes, stats: est.Total}}, nil
	}
	frontier, err := netplan.Pareto(ref, net, netplan.Options{Tracer: s.tr})
	if err != nil {
		return nil, err
	}
	variants := make([]modelVariant, 0, len(frontier))
	for _, v := range frontier {
		// Warm the serving cache under the variant's pinned options so the
		// first admission under any variant executes against a memoized
		// plan instead of paying a whole-network re-solve on the service
		// path (Pareto's own solves bypass the cache).
		if _, _, err := s.cache.Plan(net, v.Opts); err != nil {
			return nil, err
		}
		variants = append(variants, modelVariant{
			desc:  v.Desc,
			opts:  v.Opts,
			peak:  v.Plan.PeakBytes,
			stats: v.Est.Total,
		})
	}
	sort.Slice(variants, func(i, j int) bool {
		ci, cj := variants[i].stats.Cycles(ref), variants[j].stats.Cycles(ref)
		if ci != cj {
			return ci < cj
		}
		return variants[i].peak < variants[j].peak
	})
	return variants, nil
}

// Submit enqueues one inference request for a registered model and returns
// its Ticket. Rejections at submit time — unknown model, closed server,
// full queues, no usable device — return an error and no ticket; the
// underlying request still resolves to a terminal state so its trace tree
// closes. Every returned ticket is guaranteed to resolve (done,
// deadline-shed, canceled, or device-lost).
func (s *Server) Submit(modelName string, opts SubmitOptions) (*Ticket, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	mdl, ok := s.models[modelName]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, modelName)
	}

	req := &request{
		srv:       s,
		mdl:       mdl,
		seed:      opts.Seed,
		submitted: time.Now(),
		doneCh:    make(chan struct{}),
	}
	req.shardIdx.Store(-1)
	req.id = s.nextID.Add(1)
	req.setState(StateSubmitted)
	submitSpan := s.traceSubmit(req, modelName)

	// The plans were resolved through the cache at registration and plans
	// are deterministic, so the model's stored variant peaks ARE the
	// request's admission currency — no re-solve on the submit path (the
	// executor re-plans through the cache, off this path, if the entry was
	// evicted). The peak starts at the minimal variant's (the queue fit
	// check); the dispatcher rewrites it to the selected variant's.
	req.peak = mdl.minPeak
	req.setState(StatePlanned)

	req.priority = opts.Priority
	if req.priority == 0 {
		req.priority = mdl.cfg.Priority
	}
	req.latencyBudget = opts.LatencyBudget
	if req.latencyBudget == 0 {
		req.latencyBudget = mdl.cfg.LatencyBudget
	}
	req.deadline = opts.Deadline
	if req.deadline.IsZero() && mdl.cfg.MaxQueueWait > 0 {
		req.deadline = req.submitted.Add(mdl.cfg.MaxQueueWait)
	}
	if !req.deadline.IsZero() {
		// Wake the home shard's dispatchers just past the deadline so an
		// otherwise idle queue still sheds the request promptly. Armed
		// before the request is visible to any dispatcher so resolve() can
		// stop it race-free; kick re-reads the routing index, so a request
		// re-queued after a crash still wakes the right shard.
		req.timer = time.AfterFunc(time.Until(req.deadline)+time.Millisecond, func() { s.kick(req) })
	}

	// Route to the least-loaded shard whose largest usable pool fits the
	// request, re-validating under each shard lock.
	sawFull, sawClosed := false, false
	for _, sh := range s.shardsByDepth(req.peak) {
		sh.mu.Lock()
		if sh.closed {
			sawClosed = true
			sh.mu.Unlock()
			continue
		}
		if int(sh.poolMax.Load()) < req.peak {
			sh.mu.Unlock()
			continue
		}
		if sh.q.count >= s.queueCap {
			sawFull = true
			sh.mu.Unlock()
			continue
		}
		s.traceEnqueued(sh, req, submitSpan)
		s.enqueueLocked(sh, req)
		sh.mu.Unlock()
		return &Ticket{r: req}, nil
	}

	// Rejected at submit time: no ticket is issued, but the request still
	// resolves to a terminal state — previously these paths stopped the
	// timer and dropped a forever-StatePlanned request with an open span
	// tree.
	req.stopTimer()
	res := Result{Model: mdl.name, PeakBytes: req.peak}
	switch {
	case sawFull:
		s.traceSubmitRejected(req, submitSpan, outcomeQueueFull)
		err := fmt.Errorf("%w (cap %d per shard)", ErrQueueFull, s.queueCap)
		req.resolve(res, err, StateRejected)
		return nil, err
	case sawClosed:
		s.traceSubmitRejected(req, submitSpan, outcomeClosed)
		req.resolve(res, ErrClosed, StateRejected)
		return nil, ErrClosed
	default:
		s.traceSubmitRejected(req, submitSpan, outcomeNoDevice)
		err := fmt.Errorf("%w: no usable device pool fits model %s (needs %d bytes)",
			ErrDeviceLost, mdl.name, req.peak)
		req.resolve(res, err, StateRejected)
		return nil, err
	}
}

// kick wakes the dispatchers of a request's current home shard (deadline
// timers). A request not yet routed — or whose shard index is stale —
// falls back to waking every shard.
func (s *Server) kick(req *request) {
	idx := int(req.shardIdx.Load())
	s.mu.Lock()
	var targets []*shard
	if idx >= 0 && idx < len(s.shards) {
		targets = []*shard{s.shards[idx]}
	} else {
		targets = append(targets, s.shards...)
	}
	s.mu.Unlock()
	for _, sh := range targets {
		sh.mu.Lock()
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
}

// dispatch is one device's work-stealing loop over its shard's queue:
// shed expired requests, steal the best fitting one, reserve its peak,
// and hand it to an executor goroutine. Exits when the device is removed
// or crashed, or when the server is closed and the shard's queue is fully
// drained.
func (s *Server) dispatch(d *device) {
	defer s.dispatchers.Done()
	sh := d.sh
	for {
		sh.mu.Lock()
		var req *request
		var shed []*request
		var now time.Time
		for {
			if d.dead || d.removed {
				sh.mu.Unlock()
				s.finishShed(now, shed)
				return
			}
			now = time.Now()
			shed = s.shedExpiredLocked(sh, now, shed)
			if !d.draining && d.active < d.slots {
				req = sh.q.take(d.ledger.Free())
			}
			if req != nil {
				break
			}
			if sh.closed && sh.q.count == 0 {
				sh.mu.Unlock()
				s.finishShed(now, shed)
				return
			}
			if len(shed) > 0 {
				// Drop the lock to complete the shed batch (trace close +
				// ticket resolve run off the admission lock), then retry.
				break
			}
			sh.cond.Wait()
		}
		if req != nil {
			s.admitLocked(sh, d, req)
		}
		sh.mu.Unlock()
		s.finishShed(now, shed)
	}
}

// admitLocked selects the request's plan variant (smallest-peak while the
// shard is degraded, fastest-fitting otherwise), reserves it in the
// device ledger, and hands the request to an executor goroutine. Runs
// with shard.mu held, in the admitting dispatcher.
func (s *Server) admitLocked(sh *shard, d *device, req *request) {
	degraded := sh.degraded
	var v *modelVariant
	if degraded {
		v = req.mdl.pickSmallest(d.ledger.Free())
	} else {
		v = req.mdl.pick(d.ledger.Free(), d.profile)
	}
	if v == nil || !d.ledger.TryReserve(req.id, v.peak) {
		// take admitted on the minimal peak and free bytes only grow while
		// this dispatcher holds the shard lock, so this cannot happen;
		// requeue defensively (before the admission metrics, so a retry
		// cannot double-count them).
		req.peak = req.mdl.minPeak
		s.enqueueLocked(sh, req)
		return
	}
	req.variant = v
	req.peak = v.peak
	req.estLatency = time.Duration(v.stats.LatencySeconds(d.profile) * float64(time.Second))
	req.metBudget = req.latencyBudget == 0 || req.estLatency <= req.latencyBudget
	req.degradedAdmit = degraded
	d.tracePoolUsed()
	sh.noteQueueChangedLocked(s.degradeDepth)
	s.traceAdmit(sh, d, req, degraded)
	req.admittedAt = time.Now()
	req.setState(StateAdmitted)
	d.active++
	s.execs.Add(1)
	go s.execute(d, req)
}

// execute runs one admitted request on its device and resolves the
// ticket. If the device crashed mid-request (its ledger abandoned), the
// run's outcome is void: the request is re-queued once onto a surviving
// device or resolved with ErrDeviceLost.
func (s *Server) execute(d *device, req *request) {
	defer s.execs.Done()
	req.setState(StateRunning)
	if s.testExecGate != nil {
		s.testExecGate(d, req)
	}
	execSpan := s.traceExecuteStart(d, req)
	var run *netplan.RunResult
	var err error
	switch s.mode {
	case ExecDryRun:
		// Admission-control stress mode: hold the reservation across a
		// scheduling point so residency windows genuinely overlap.
		runtime.Gosched()
	default:
		// A sampled request's unit spans join its buffered tree and flush
		// with it at flightDone. An unsampled request suppresses them (nil
		// tracer): the no-op path must not pay per-kernel allocations.
		extr := s.tr
		if !req.sampled {
			extr = nil
		}
		run, err = netplan.RunTracedTo(d.profile, req.mdl.net, req.seed, req.variant.opts, s.cache,
			extr, req.spanBuf, execSpan.ID(), execSpan.TraceID(), d.name)
		if err == nil && !run.AllVerified {
			err = fmt.Errorf("serve: %s on %s: output verification failed", req.mdl.name, d.name)
		}
		if err == nil && run.Violations != 0 {
			err = fmt.Errorf("serve: %s on %s: %d memory-safety violations", req.mdl.name, d.name, run.Violations)
		}
	}
	if run != nil && execSpan != nil {
		cycles := 0.0
		for _, r := range run.Modules {
			cycles += r.Stats.Cycles(d.profile)
		}
		for _, r := range run.Seams {
			cycles += r.Stats.Cycles(d.profile)
		}
		execSpan.SetCycles(0, cycles)
		execSpan.Attr(obs.Float("device_cycles", cycles))
	}
	execSpan.EndTo(req.spanBuf)
	// A crashed device's ledger was force-released by Abandon, so this
	// returns -1 on the dead path — expected there, an accounting bug
	// anywhere else.
	freed := d.ledger.Release(req.id)
	d.tracePoolUsed()
	now := time.Now()

	sh := d.sh
	sh.mu.Lock()
	d.active--
	dead := d.dead
	if !dead {
		if freed != req.peak && err == nil {
			err = fmt.Errorf("serve: ledger released %d bytes for request %d, reserved %d", freed, req.id, req.peak)
		}
		if err == nil {
			d.completed++
		}
	}
	sh.cond.Broadcast()
	sh.mu.Unlock()

	if dead {
		s.failover(d, req)
		return
	}
	// Close the span tree before resolving: a caller that waits on the
	// ticket and then snapshots the tracer sees the whole tree.
	s.traceComplete(d, req, freed, now.Sub(req.submitted), err)
	req.resolve(Result{
		Model:            req.mdl.name,
		Device:           d.name,
		PeakBytes:        req.peak,
		Variant:          req.variant.desc,
		EstimatedLatency: req.estLatency,
		MetLatencyBudget: req.metBudget,
		Run:              run,
		QueueWait:        req.admittedAt.Sub(req.submitted),
		Latency:          now.Sub(req.submitted),
	}, err, StateDone)
}

// cancel implements Ticket.Cancel: remove the request from its shard's
// queue if it is still there.
func (s *Server) cancel(r *request) bool {
	idx := int(r.shardIdx.Load())
	s.mu.Lock()
	if idx < 0 || idx >= len(s.shards) {
		s.mu.Unlock()
		return false
	}
	sh := s.shards[idx]
	s.mu.Unlock()
	sh.mu.Lock()
	if !sh.q.remove(r) {
		// Already taken — admitted, shed, or mid-requeue onto another
		// shard after a crash. Admitted work always runs to completion so
		// the ledger release discipline stays trivial.
		sh.mu.Unlock()
		return false
	}
	s.traceQueueExit(sh, r, outcomeCanceled)
	sh.noteQueueChangedLocked(s.degradeDepth)
	sh.cond.Broadcast()
	sh.mu.Unlock()
	r.resolve(Result{
		Model:     r.mdl.name,
		PeakBytes: r.peak,
		Latency:   time.Since(r.submitted),
	}, ErrCanceled, StateCanceled)
	return true
}

// Close drains the server gracefully: no new submissions are accepted,
// every queued request is still admitted (or shed by its deadline), and
// Close returns once all running requests have resolved. Safe to call
// more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	shards := append([]*shard(nil), s.shards...)
	s.mu.Unlock()
	for _, sh := range shards {
		sh.mu.Lock()
		sh.closed = true
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}
	s.dispatchers.Wait()
	s.execs.Wait()
	return nil
}
