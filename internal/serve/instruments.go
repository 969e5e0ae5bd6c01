package serve

import (
	"time"

	"github.com/vmcu-project/vmcu/internal/obs"
)

// Serving metrics. The server keeps every counter and gauge it reports as
// an obs metric family keyed by the fixed label set {model, shard,
// device, outcome, result} — never request IDs or anything else
// unbounded — so one scrape answers "which model/device/shard is
// degrading right now". The families are always on: they live on the
// tracer's registry when Options.Tracer is set (so /metrics exports
// them) and on a private registry otherwise, and Metrics() is derived
// from them — there is no second counter store.
//
//	vmcu_serve_submitted_total{model,shard}        accepted submissions
//	vmcu_serve_outcomes_total{model,shard,outcome} terminal outcomes
//	vmcu_serve_requeued_total{shard}               churn-displaced absorbs
//	vmcu_serve_variant_upgrades_total{shard}       bigger-peak admissions
//	vmcu_serve_degraded_admissions_total{shard}    degraded-mode admissions
//	vmcu_serve_degraded_engaged_total{shard}       degraded-mode engagements
//	vmcu_serve_latency_budget_total{shard,result}  budgeted admissions (met/missed)
//	vmcu_serve_device_crashes_total{shard}         simulated device crashes
//	vmcu_serve_rejected_too_large_total            registrations no pool fits
//	vmcu_serve_latency_ms{model}                   sojourn latency, WINDOWED
//	vmcu_serve_queue_depth{shard}                  live queue depth
//	vmcu_serve_queue_high_water{shard}             queue-depth high-water mark
//	vmcu_serve_degraded{shard}                     degraded mode (0/1)
//	vmcu_serve_pool_used_bytes{device,shard}       ledger bytes, WINDOWED
//	vmcu_serve_pool_capacity_bytes{device,shard}   pool size
//
// The outcome shard is the shard the request was charged to; submit-time
// rejections never reached one and carry shard="".
//
// Windowed families additionally export trailing-window views
// (`_window{quantile=...}`, `_window_rps`, `_window_max`) so the scrape
// reflects the last ~10 seconds, not since-boot totals.
//
// The per-labelset handles are resolved ONCE, when the labeled thing
// comes into existence — shard handles at shard creation, device
// handles at fleet join, the model's latency histogram at Register —
// and then observed through directly, so the steady-state cost per
// event is one atomic add or one short mutex hold. Only the terminal
// outcome counter resolves its labelset at completion time (the outcome
// isn't known earlier), through the server's resolve-once handle cache.

// Serving metric family names.
const (
	metricSubmitted          = "vmcu_serve_submitted_total"
	metricOutcomes           = "vmcu_serve_outcomes_total"
	metricRequeued           = "vmcu_serve_requeued_total"
	metricVariantUpgrades    = "vmcu_serve_variant_upgrades_total"
	metricDegradedAdmissions = "vmcu_serve_degraded_admissions_total"
	metricDegradedEngaged    = "vmcu_serve_degraded_engaged_total"
	metricLatencyBudget      = "vmcu_serve_latency_budget_total"
	metricDeviceCrashes      = "vmcu_serve_device_crashes_total"
	metricRejectedTooLarge   = "vmcu_serve_rejected_too_large_total"
	metricLatencyMs          = "vmcu_serve_latency_ms"
	metricQueueDepth         = "vmcu_serve_queue_depth"
	metricQueueHighWater     = "vmcu_serve_queue_high_water"
	metricDegraded           = "vmcu_serve_degraded"
	metricPoolUsed           = "vmcu_serve_pool_used_bytes"
	metricPoolCap            = "vmcu_serve_pool_capacity_bytes"
)

// Terminal outcome label values (the "outcome" label of
// vmcu_serve_outcomes_total).
const (
	outcomeDone         = "done"
	outcomeFailed       = "failed"
	outcomeCanceled     = "canceled"
	outcomeShedDeadline = "shed-deadline"
	outcomeQueueFull    = "rejected-queue-full"
	outcomeClosed       = "rejected-closed"
	outcomeNoDevice     = "rejected-no-device"
	outcomeDeviceLost   = "device-lost"
)

// latencyBoundsMs are the sojourn-latency histogram's upper bounds in
// milliseconds, le semantics: roughly 1-2-5 exponential from 1ms to 30s,
// covering sub-millisecond dry-run admissions through multi-second
// verification backlogs.
var latencyBoundsMs = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 30000}

// trailingWindow is the window shape of the WINDOWED families: 10
// sub-windows of one second. Metrics' latency percentiles cover it.
var trailingWindow = obs.WindowOptions{SubWindows: 10, Width: time.Second}

// serveInstruments holds the server's metric families, built once at
// NewServer.
type serveInstruments struct {
	submitted          *obs.CounterVec
	outcomes           *obs.CounterVec
	requeued           *obs.CounterVec
	variantUpgrades    *obs.CounterVec
	degradedAdmissions *obs.CounterVec
	degradedEngaged    *obs.CounterVec
	latencyBudget      *obs.CounterVec
	deviceCrashes      *obs.CounterVec
	tooLarge           *obs.Counter
	latency            *obs.HistogramVec
	queueDepth         *obs.GaugeVec
	queueHighWater     *obs.GaugeVec
	degraded           *obs.GaugeVec
	poolUsed           *obs.GaugeVec
	poolCap            *obs.GaugeVec
}

// newServeInstruments registers the serving families on reg.
func newServeInstruments(reg *obs.Registry) serveInstruments {
	return serveInstruments{
		submitted: reg.CounterVec(metricSubmitted,
			"Accepted submissions (tickets created).", "model", "shard"),
		outcomes: reg.CounterVec(metricOutcomes,
			"Terminal request outcomes.", "model", "shard", "outcome"),
		requeued: reg.CounterVec(metricRequeued,
			"Churn-displaced requests absorbed by this shard.", "shard"),
		variantUpgrades: reg.CounterVec(metricVariantUpgrades,
			"Admissions whose selected variant's peak exceeded the model's minimum.", "shard"),
		degradedAdmissions: reg.CounterVec(metricDegradedAdmissions,
			"Admissions made while the shard was in degraded mode.", "shard"),
		degradedEngaged: reg.CounterVec(metricDegradedEngaged,
			"Times the shard entered degraded mode.", "shard"),
		latencyBudget: reg.CounterVec(metricLatencyBudget,
			"Admissions carrying a latency budget, by whether the variant's estimate met it.", "shard", "result"),
		deviceCrashes: reg.CounterVec(metricDeviceCrashes,
			"Simulated crashes of the shard's devices.", "shard"),
		tooLarge: reg.CounterVec(metricRejectedTooLarge,
			"Model registrations refused because no device pool fits the minimal peak.").With(),
		latency: reg.HistogramVec(metricLatencyMs,
			"Request sojourn latency (submit to done), milliseconds.",
			latencyBoundsMs, trailingWindow, "model"),
		queueDepth: reg.GaugeVec(metricQueueDepth,
			"Live admission-queue depth.", obs.WindowOptions{}, "shard"),
		queueHighWater: reg.GaugeVec(metricQueueHighWater,
			"Admission-queue depth high-water mark.", obs.WindowOptions{}, "shard"),
		degraded: reg.GaugeVec(metricDegraded,
			"Degraded-mode state (1 while engaged).", obs.WindowOptions{}, "shard"),
		poolUsed: reg.GaugeVec(metricPoolUsed,
			"Reserved SRAM pool bytes on the device ledger.",
			trailingWindow, "device", "shard"),
		poolCap: reg.GaugeVec(metricPoolCap,
			"SRAM pool capacity of the device ledger.", obs.WindowOptions{}, "device", "shard"),
	}
}

// tracePoolUsed refreshes a device's pool-occupancy gauge from its
// ledger. Called after every reservation/release/abandon; the gauge has
// its own short lock, so callers need not hold shard.mu.
func (d *device) tracePoolUsed() {
	d.hPoolUsed.Set(float64(d.ledger.Used()))
}
