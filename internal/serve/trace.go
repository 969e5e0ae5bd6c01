package serve

import (
	"time"

	"github.com/vmcu-project/vmcu/internal/obs"
)

// Request-lifecycle metrics and tracing. Each helper below is one
// lifecycle edge: it bumps the request's metric counters unconditionally
// (the families are always on, see instruments.go) and records spans and
// flight work only when a tracer is installed and the request was
// sampled. When Options.Tracer is set, every sampled submission records
// a connected span tree:
//
//	request                         (root, kind "request")
//	├── submit                      (Submit body: ticket creation)
//	├── queue                       (enqueue → taken by a dispatcher, or shed)
//	├── admit                       (variant selection + ledger reserve)
//	│   └── ledger.reserve
//	├── dispatch                    (admission → executor goroutine running)
//	├── execute                     (the netplan.Run verification)
//	│   └── one span per executed unit (module / split region / seam),
//	│       emitted by netplan with device cycle counters as attributes
//	└── complete                    (ledger release + metrics + resolve)
//	    └── ledger.release
//
// A request displaced by a device crash grows a second queue span under
// the same root (the requeue), then continues through admit/dispatch/
// execute again on the surviving device. Requests that never reach
// admission still close their tree: the queue span ends with an
// "outcome" attribute (shed / canceled / evacuated) and the root span
// ends with the terminal state — including submit-time rejections, whose
// requests now resolve instead of leaving orphaned open roots. Every
// span-touching path runs under the home shard's lock or in the single
// goroutine owning the request at that stage, so the tracing is
// race-clean; with a nil tracer no request is ever sampled, so only the
// counters run.
//
// No span of a request hits the tracer as it ends: several stages end
// spans while holding the shard lock on the admission hot path, so each
// End is buffered into req.spanBuf (a plain slice append), and the
// executor's per-unit spans join the same buffer (netplan.RunTracedTo
// writes them with EmitTo in the executor goroutine, which owns the
// buffer during execute). The whole tree is flushed in one RecordTree
// call at the terminal point — the flight recorder's only intake, so a
// retained tree is exactly what the request's owner buffered.
//
// Every terminal path additionally completes the request's trace in the
// tracer's flight recorder (no-op unless EnableFlight was called): a
// non-empty reason retains the whole span tree as an exemplar. The
// retention predicate — what counts as "interesting" — is:
//
//	error        execution failed or verification mismatched
//	deadline     shed at the admission deadline
//	queue-full   rejected at submit because every eligible queue was full
//	no-device    rejected at submit because no usable pool fits
//	device-lost  stranded by churn (crash with no surviving absorber)
//	degraded     admitted in degraded mode (smallest-peak variant)
//	budget-miss  served, but the variant's estimated latency broke the budget
//	p99-outlier  served fine but slower than the live windowed p99
//
// Clean completions (and cancels, and shutdown-time rejections) return
// an empty reason: their buffered spans are discarded, which is what
// bounds the recorder at 137k RPS.
//
// Head sampling gates all of the above. traceSubmit asks the tracer's
// head sampler (obs.SampleHead) exactly once, when the root span would
// be created; an unsampled request keeps every span pointer nil and its
// spanBuf nil — each helper below still bumps its counters (metrics see
// 100% of traffic at any sample rate, or with no tracer at all) and then
// returns before touching spans, so the unsampled tracing cost is a few
// predictable branches and zero allocations. At the terminal edge an
// unsampled request that ended in an always-keep class (error,
// deadline, queue-full, no-device, device-lost, degraded) retains a
// synthetic single-span exemplar via obs.SampleTailKeep, so flight
// coverage of interesting outcomes stays complete. Sampled requests draw their spanBuf from the
// obs buffer pool; RecordTree recycles it, which is why flightDone
// clears req.spanBuf — nothing may touch the buffer after its flush.

// flightP99MinCount is the minimum trailing-window completion count
// before the p99-outlier retention predicate applies — below it the
// live p99 is noise and every early request would be "an outlier".
const flightP99MinCount = 100

// flightDone is the request's terminal tracing edge. For a sampled
// request it flushes the buffered span tree into the tracer and
// completes its trace in the flight recorder: an empty reason discards
// the tree from the recorder (the spans still land in the span ring), a
// non-empty one retains it. This is the ONLY point the tracing of a
// request takes tracer locks — every earlier stage just appended to
// req.spanBuf — and it consumes the buffer (RecordTree recycles it to
// the pool), so req.spanBuf is cleared here and must not be used after.
// For an unsampled request it offers the outcome to the tail-keep path
// instead: an always-keep class retains a synthetic exemplar. Nil-safe
// throughout (nil tracer → no-op).
func (s *Server) flightDone(req *request, reason string) {
	if s.tr == nil {
		return
	}
	if req.sampled {
		s.tr.RecordTree(req.spanBuf, req.traceID, reason)
		req.spanBuf = nil
		return
	}
	if reason != "" {
		s.tr.SampleTailKeep(reason, req.mdl.name, req.submitted)
	}
}

// traceSubmit makes the head-sampling decision and, for kept requests,
// opens the root span and the submit stage span. An unsampled request
// leaves every span field nil and allocates nothing — this is the no-op
// path the rest of the helpers fall through.
func (s *Server) traceSubmit(req *request, modelName string) (submit *obs.Span) {
	if s.tr == nil {
		return nil
	}
	if !s.tr.SampleHead() {
		return nil
	}
	req.sampled = true
	// Reserve only the rejection-path footprint here (root + submit);
	// the full lifecycle reservation waits until the queue accepts the
	// request — most submissions in an overload burst bounce at submit
	// and would waste a 12-slot buffer.
	req.spanBuf = obs.NewSpanBuffer()
	req.spanBuf.Reserve(2)
	req.rootSpan = s.tr.Start("request", obs.KindRequest)
	req.traceID = req.rootSpan.TraceID()
	req.rootSpan.Attr(obs.Str("model", modelName))
	submit = s.tr.StartChild(req.rootSpan, "submit", obs.KindStage)
	return submit
}

// traceEnqueued ends the submit span and opens the queue span. Runs with
// shard.mu held, with the request id assigned.
func (s *Server) traceEnqueued(sh *shard, req *request, submit *obs.Span) {
	s.ins.submitted.With(req.mdl.name, sh.key).Inc()
	if !req.sampled {
		return
	}
	req.rootSpan.Attr(obs.Int("request_id", int64(req.id)))
	req.spanBuf.Reserve(10)
	submit.EndTo(req.spanBuf)
	req.queueSpan = s.tr.StartChild(req.rootSpan, "queue", obs.KindStage)
	req.queueSpan.Attr(obs.Str("shard", sh.key))
}

// traceSubmitRejected closes the tree of a request rejected at submit
// time (queue full / closed / no usable device): no queue span was ever
// opened, and the request resolves to a terminal state right after.
func (s *Server) traceSubmitRejected(req *request, submit *obs.Span, reason string) {
	// Submit-time rejections never reached a shard; the shard label is
	// empty by design, not unknown.
	s.ins.outcomes.With(req.mdl.name, "", reason).Inc()
	if req.sampled {
		submit.Attr(obs.Str("outcome", reason))
		submit.EndTo(req.spanBuf)
		req.rootSpan.Attr(obs.Str("state", reason))
		req.rootSpan.EndTo(req.spanBuf)
	}
	switch reason {
	case outcomeQueueFull:
		s.flightDone(req, "queue-full")
	case outcomeNoDevice:
		s.flightDone(req, "no-device")
	default:
		s.flightDone(req, "")
	}
}

// traceAdmit counts the admission (degraded mode, variant upgrade,
// latency budget), ends the queue span, and records the admit stage:
// variant selection plus the ledger reservation. Runs with shard.mu
// held, in the admitting dispatcher.
func (s *Server) traceAdmit(sh *shard, d *device, req *request, degraded bool) {
	if degraded {
		sh.hDegradedAdmissions.Inc()
	}
	if req.variant.peak > req.mdl.minPeak {
		sh.hVariantUpgrades.Inc()
	}
	if req.latencyBudget > 0 {
		if req.metBudget {
			sh.hBudgetMet.Inc()
		} else {
			sh.hBudgetMissed.Inc()
		}
	}
	if !req.sampled {
		return
	}
	req.queueSpan.EndTo(req.spanBuf)
	req.queueSpan = nil
	admit := s.tr.StartChild(req.rootSpan, "admit", obs.KindStage)
	admit.SetDevice(d.name)
	admit.Attr(
		obs.Str("variant", req.variant.desc),
		obs.Int("peak_bytes", int64(req.peak)),
		obs.Int("ledger_free_bytes", int64(d.ledger.Free())),
	)
	if degraded {
		admit.Attr(obs.Str("mode", "degraded"))
	}
	res := s.tr.StartChild(admit, "ledger.reserve", obs.KindStage)
	res.SetDevice(d.name)
	res.Attr(obs.Int("bytes", int64(req.peak)))
	res.EndTo(req.spanBuf)
	admit.EndTo(req.spanBuf)
	req.dispatchSpan = s.tr.StartChild(req.rootSpan, "dispatch", obs.KindStage)
	req.dispatchSpan.SetDevice(d.name)
}

// traceQueueExit closes the tree of a request that left the queue without
// admission (deadline shed or cancel). Runs with shard.mu held.
func (s *Server) traceQueueExit(sh *shard, req *request, outcome string) {
	s.ins.outcomes.With(req.mdl.name, sh.key, outcome).Inc()
	if req.sampled {
		req.queueSpan.Attr(obs.Str("outcome", outcome))
		req.queueSpan.EndTo(req.spanBuf)
		req.queueSpan = nil
		req.rootSpan.Attr(obs.Str("state", outcome))
		req.rootSpan.EndTo(req.spanBuf)
	}
	s.flightDone(req, "")
}

// traceShedLocked ends a deadline-shed request's queue span (an EndTo is
// a buffered append — no tracer locks) and bumps its outcome counter.
// Runs with shard.mu held, in the shed scan that removed the request
// from the queue; the expensive rest of the tree close happens off-lock
// in traceShedFinish.
func (s *Server) traceShedLocked(sh *shard, req *request) {
	s.ins.outcomes.With(req.mdl.name, sh.key, outcomeShedDeadline).Inc()
	if !req.sampled {
		return
	}
	req.queueSpan.Attr(obs.Str("outcome", outcomeShedDeadline))
	req.queueSpan.EndTo(req.spanBuf)
	req.queueSpan = nil
}

// traceShedFinish closes the rest of a deadline-shed request's tree.
// Unlike the other queue exits it runs WITHOUT the shard lock: the shed
// already removed the request from the queue and ended its queue span
// under the lock (traceShedLocked), making the shedding dispatcher the
// request's sole owner, so the root close and the flight flush happen
// off the admission path.
func (s *Server) traceShedFinish(req *request) {
	if req.sampled {
		req.rootSpan.Attr(obs.Str("state", outcomeShedDeadline))
		req.rootSpan.EndTo(req.spanBuf)
	}
	s.flightDone(req, "deadline")
}

// traceEvacuated ends the queue span of a request evacuated from a
// shrunken shard (device removal/crash left no pool that could hold it)
// without closing the root: the request is about to be re-routed or
// resolved with ErrDeviceLost. Runs with shard.mu held.
func (s *Server) traceEvacuated(sh *shard, req *request) {
	if !req.sampled {
		return
	}
	req.queueSpan.Attr(obs.Str("outcome", "evacuated"))
	req.queueSpan.EndTo(req.spanBuf)
	req.queueSpan = nil
}

// traceRequeue opens a fresh queue span for a churn-displaced request
// landing on a surviving shard — the same root grows a second queue/
// admit/dispatch/execute run. Runs with shard.mu held (the receiving
// shard's).
func (s *Server) traceRequeue(sh *shard, req *request, from string) {
	sh.hRequeued.Inc()
	if !req.sampled {
		return
	}
	req.queueSpan = s.tr.StartChild(req.rootSpan, "queue", obs.KindStage)
	req.queueSpan.Attr(
		obs.Str("shard", sh.key),
		obs.Str("requeued_from", from),
	)
}

// traceDeviceLost counts and closes the tree of a request stranded by
// churn: its device crashed mid-request (or every candidate pool left)
// and no surviving device absorbed it. The outcome is charged to sh.
// Runs in the goroutine owning the request (executor unwind or the churn
// call itself); the queue span, if any, was already ended by
// traceEvacuated.
func (s *Server) traceDeviceLost(sh *shard, req *request, devName string) {
	s.ins.outcomes.With(req.mdl.name, sh.key, outcomeDeviceLost).Inc()
	if req.sampled {
		req.rootSpan.Attr(
			obs.Str("state", outcomeDeviceLost),
			obs.Str("device", devName),
		)
		req.rootSpan.EndTo(req.spanBuf)
	}
	s.flightDone(req, "device-lost")
}

// traceExecuteStart ends the dispatch span and opens the execute span in
// the executor goroutine.
func (s *Server) traceExecuteStart(d *device, req *request) *obs.Span {
	if !req.sampled {
		return nil
	}
	req.dispatchSpan.EndTo(req.spanBuf)
	req.dispatchSpan = nil
	exec := s.tr.StartChild(req.rootSpan, "execute", obs.KindStage)
	exec.SetDevice(d.name)
	exec.Attr(obs.Str("variant", req.variant.desc))
	return exec
}

// traceComplete counts the terminal outcome and its sojourn latency,
// records the completion stage (ledger release + metrics), closes the
// root span, and decides the flight-retention outcome. Runs in the
// executor goroutine after the request resolved its outcome fields.
func (s *Server) traceComplete(d *device, req *request, freed int, latency time.Duration, err error) {
	state := outcomeDone
	if err != nil {
		state = outcomeFailed
	}
	if req.sampled {
		complete := s.tr.StartChild(req.rootSpan, "complete", obs.KindStage)
		complete.SetDevice(d.name)
		rel := s.tr.StartChild(complete, "ledger.release", obs.KindStage)
		rel.SetDevice(d.name)
		rel.Attr(obs.Int("bytes", int64(freed)))
		rel.EndTo(req.spanBuf)
		complete.Attr(obs.Str("state", state))
		complete.EndTo(req.spanBuf)
		req.rootSpan.Attr(obs.Str("state", state))
		req.rootSpan.SetDevice(d.name)
		req.rootSpan.EndTo(req.spanBuf)
	}
	s.ins.outcomes.With(req.mdl.name, d.sh.key, state).Inc()

	latMs := float64(latency) / float64(time.Millisecond)
	req.mdl.hLatency.Observe(latMs)
	if s.tr == nil {
		return
	}
	switch {
	case err != nil:
		s.flightDone(req, "error")
	case req.degradedAdmit:
		s.flightDone(req, "degraded")
	case req.latencyBudget > 0 && !req.metBudget:
		s.flightDone(req, "budget-miss")
	default:
		reason := ""
		if p99, n := req.mdl.hLatency.LiveQuantile(0.99); n >= flightP99MinCount && latMs > p99 {
			reason = "p99-outlier"
		}
		s.flightDone(req, reason)
	}
}
