package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// State is one stage of the asynchronous request lifecycle:
// submit → planned → queued → admitted → running → done, with rejected
// and canceled as the terminal failure exits.
type State int32

const (
	// StateSubmitted: the request exists but has not been planned yet.
	StateSubmitted State = iota
	// StatePlanned: the model's NetworkPlan was resolved through the plan
	// cache; the plan's peak is the request's admission currency.
	StatePlanned
	// StateQueued: the request sits in the bounded admission queue.
	StateQueued
	// StateAdmitted: a device reserved the request's peak in its pool
	// ledger; the request is resident but not yet running.
	StateAdmitted
	// StateRunning: the request is executing on its device.
	StateRunning
	// StateDone: the request finished (successfully or with an execution
	// error — inspect Ticket.Result).
	StateDone
	// StateRejected: the request was shed before admission (deadline) or
	// rejected at submit time (closed server, full queues, no usable
	// device) — submit-time rejections return the error directly but the
	// request still resolves here so its trace tree closes.
	StateRejected
	// StateCanceled: the request was canceled while queued.
	StateCanceled
	// StateDeviceLost: the request's device crashed mid-request (or every
	// device that could hold it left the fleet) and no surviving device
	// could absorb the failover.
	StateDeviceLost
)

func (s State) String() string {
	switch s {
	case StateSubmitted:
		return "submitted"
	case StatePlanned:
		return "planned"
	case StateQueued:
		return "queued"
	case StateAdmitted:
		return "admitted"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateRejected:
		return "rejected"
	case StateCanceled:
		return "canceled"
	case StateDeviceLost:
		return "device-lost"
	}
	return "unknown"
}

// The explicit rejection reasons a submission can resolve to. Submit-time
// rejections (full queue, oversized model, closed server) are returned
// from Submit directly; queue-time rejections (deadline shed, cancel)
// resolve the ticket.
var (
	// ErrQueueFull rejects a submission when the bounded admission queue
	// is at capacity (shed-on-full).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDeadline rejects a queued request whose admission deadline passed
	// before any device could fit it.
	ErrDeadline = errors.New("serve: admission deadline exceeded")
	// ErrTooLarge rejects a model whose planned peak exceeds every
	// device pool — it could never be admitted.
	ErrTooLarge = errors.New("serve: planned peak exceeds every device pool")
	// ErrCanceled resolves a ticket whose request was canceled while
	// queued.
	ErrCanceled = errors.New("serve: request canceled")
	// ErrClosed rejects submissions and registrations after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrUnknownModel rejects a submission naming an unregistered model.
	ErrUnknownModel = errors.New("serve: unknown model")
	// ErrDeviceLost resolves a request whose device crashed mid-request
	// and could not be failed over to a surviving device, and rejects
	// submissions when churn has left no usable device that could ever
	// hold the model.
	ErrDeviceLost = errors.New("serve: device lost")
)

// SubmitOptions parameterize one inference request.
type SubmitOptions struct {
	// Priority orders admission: higher priorities are admitted first,
	// FIFO within a priority. 0 means "use the model's priority".
	Priority int
	// Deadline is the absolute admission deadline: if no device admits
	// the request by then, it is shed with ErrDeadline. The zero time
	// applies the model's MaxQueueWait (if any).
	Deadline time.Time
	// LatencyBudget is the on-device inference deadline in simulated
	// device time: admission selects the fastest registered plan variant
	// that fits the device, and a request whose selected variant's
	// estimated latency still exceeds the budget is accounted as a miss
	// (Result.MetLatencyBudget, Metrics.LatencyBudgetMissed). 0 applies
	// the model's LatencyBudget (if any).
	LatencyBudget time.Duration
	// Seed picks the deterministic input the verification run executes
	// on. The weights belong to the model: every request for it runs the
	// same ones, drawn once from a fixed model seed.
	Seed int64
}

// Result reports one finished request.
type Result struct {
	// Model is the registered model name the request ran.
	Model string
	// Device names the fleet device the request was admitted to (empty
	// when the request never reached admission).
	Device string
	// PeakBytes is the plan peak that was reserved in the device ledger —
	// the request's byte-exact SRAM cost (the selected variant's peak).
	PeakBytes int
	// Variant names the plan variant admission selected (the fastest one
	// fitting the device's free pool; empty before admission).
	Variant string
	// EstimatedLatency is the selected variant's predicted on-device
	// inference time (simulated device seconds, from the analytic cost
	// model priced under the admitting device's profile).
	EstimatedLatency time.Duration
	// MetLatencyBudget reports whether EstimatedLatency fit the request's
	// latency budget (true when no budget was set; meaningful only for
	// requests that reached admission).
	MetLatencyBudget bool
	// Run is the executor's verified result (nil in ExecDryRun mode or
	// when the request never ran).
	Run *netplan.RunResult
	// QueueWait is the time from submission to admission.
	QueueWait time.Duration
	// Latency is the time from submission to completion.
	Latency time.Duration
}

// request is the server-internal lifecycle record behind a Ticket.
type request struct {
	id       uint64
	srv      *Server
	mdl      *model
	priority int
	deadline time.Time // zero means none
	seed     int64
	// peak is the request's current admission currency: the model's
	// minimal variant peak while queued (the fit check), rewritten under
	// the home shard's lock to the selected variant's peak at admission.
	peak int
	// latencyBudget is the resolved on-device inference deadline (0 none).
	latencyBudget time.Duration

	// shardIdx is the request's current home shard index (-1 before
	// routing). Written under the receiving shard's lock at every enqueue
	// (including a post-crash requeue); read lock-free by the deadline
	// timer's kick and by cancel to find the shard.
	shardIdx atomic.Int32
	// seq is the home shard's enqueue sequence — the FIFO tiebreak across
	// a priority's peak buckets; qpos is the request's absolute ring
	// position for O(1) cancel. Both guarded by shard.mu.
	seq  uint64
	qpos int64
	// requeues counts crash failovers (owned by the executor goroutine
	// unwinding the crash); one re-queue attempt is allowed before the
	// request resolves with ErrDeviceLost.
	requeues int

	submitted  time.Time
	admittedAt time.Time   // written by the dispatcher before execute starts
	timer      *time.Timer // deadline wake-up, armed before the request is enqueued

	// Written by the admitting dispatcher under shard.mu, read by execute
	// and resolve after admission.
	variant       *modelVariant
	estLatency    time.Duration
	metBudget     bool
	degradedAdmit bool // admitted while the shard was in degraded mode

	// sampled is the head-sampling decision, made exactly once when the
	// root span would be created (traceSubmit) and never revisited: true
	// means the request carries a full span tree, false means the spans
	// below stay nil and the request records only counters (plus, for
	// always-keep outcome classes, a synthetic flight exemplar at the
	// terminal edge). Immutable after traceSubmit.
	sampled bool
	// traceID is the root span's trace ID, captured at traceSubmit —
	// the root span handle recycles when it ends, so the terminal flush
	// cannot read the ID off the span. 0 when unsampled.
	traceID uint64

	// Lifecycle spans, all nil unless the server's tracer is enabled AND
	// the request was head-sampled. Each is owned by one goroutine at a
	// time: Submit until the request is enqueued, then whichever
	// dispatcher holds the home shard's lock, then the executor
	// goroutine.
	rootSpan *obs.Span
	// queueSpan is guarded by shard.mu: opened at enqueue and ended
	// exactly once, by the path that removes the request from the queue
	// (admit, shed, cancel, or evacuation — all while holding the lock).
	queueSpan    *obs.Span
	dispatchSpan *obs.Span
	// spanBuf accumulates the request's ended lifecycle spans, flushed to
	// the tracer in one batch at the terminal point (flightDone). Owned by
	// the same goroutine that owns the spans above at any moment — ending
	// a span under a contended lock is then just a slice append, with all
	// tracer synchronization deferred to completion, off the hot locks.
	// Drawn from the obs buffer pool at traceSubmit and recycled by the
	// RecordTree flush; nil for unsampled requests — their no-op tracing
	// path allocates nothing at all.
	spanBuf *obs.SpanBuffer

	state  atomic.Int32
	once   sync.Once
	doneCh chan struct{}
	result Result
	err    error
}

func (r *request) setState(s State) { r.state.Store(int32(s)) }

// stopTimer releases the deadline wake-up timer, if any, so pending
// timers don't accumulate on a loaded server with long deadlines.
func (r *request) stopTimer() {
	if r.timer != nil {
		r.timer.Stop()
	}
}

// resolve finishes the request exactly once: records the outcome, moves to
// the terminal state, and releases every Ticket waiter.
func (r *request) resolve(res Result, err error, terminal State) {
	r.once.Do(func() {
		r.stopTimer()
		r.result, r.err = res, err
		r.setState(terminal)
		close(r.doneCh)
	})
}

// Ticket is the caller's handle on an in-flight request.
type Ticket struct{ r *request }

// ID returns the server-unique request id.
func (t *Ticket) ID() uint64 { return t.r.id }

// Model returns the model name the request was submitted for.
func (t *Ticket) Model() string { return t.r.mdl.name }

// State returns the request's current lifecycle state.
func (t *Ticket) State() State { return State(t.r.state.Load()) }

// Done returns a channel closed when the request reaches a terminal state.
func (t *Ticket) Done() <-chan struct{} { return t.r.doneCh }

// Result blocks until the request finishes and returns its outcome. The
// error is nil for a verified completion, an execution error for a failed
// run, or one of the rejection sentinels (ErrDeadline, ErrCanceled).
func (t *Ticket) Result() (Result, error) {
	<-t.r.doneCh
	return t.r.result, t.r.err
}

// Cancel removes the request from the admission queue, resolving the
// ticket with ErrCanceled. It reports whether the cancel won the race: a
// request already admitted (or finished) is not canceled — admitted work
// always runs to completion so the ledger release discipline stays
// trivial.
func (t *Ticket) Cancel() bool {
	return t.r.srv.cancel(t.r)
}
