// Package vmcu is the public API of the vMCU reproduction: coordinated
// segment-level memory management and kernel execution for DNN inference
// on microcontrollers (Zheng et al., MLSys 2024), on a simulated
// Cortex-M substrate.
//
// The package exposes three layers:
//
//  1. Planning — solve the paper's Eq. (1)/(2) offset problem for a layer
//     or fused inverted-bottleneck module and obtain its peak RAM:
//     PlanPointwise, PlanFC, PlanConv2D, PlanDepthwise, PlanModule.
//  2. Execution — run the segment-aware kernels on a simulated
//     STM32-F411RE (Cortex-M4) or STM32-F767ZI (Cortex-M7), with
//     bit-exact verification against golden references and shadow-state
//     memory-safety checking: RunPointwise, RunModule, networks VWW and
//     ImageNet.
//  3. Compilation — build kernels through the loop-nest IR and lower them
//     to ARM-intrinsic C: GenerateFCKernelC.
//
// Above the single-module layer sits the whole-network scheduler
// (internal/netplan): PlanNetwork places every module of a backbone into
// one circular pool with lifetime-aware cross-module offsets, a
// per-module policy search, and a spatial patch-split search over the
// high-resolution leading modules (MCUNetV2-style patch-by-patch
// execution, PolicySplit) that breaks the per-module footprint bound.
// Non-connectable module boundaries schedule as streamed seam kernels
// (HandoffStream) wherever the elided glue op is a strided pointwise, so
// no boundary needs both activations disjoint unless its shape demands
// it. RunNetwork verifies the scheduled network — modules, split region,
// and seams — on a concurrent executor, memoizing solved plans in a
// process-wide cache.
//
// Above the scheduler sits the serving layer (internal/serve): NewServer
// runs many concurrent inference requests for multiple registered models
// across a simulated MCU fleet, admitting a request onto a device only
// when its plan's peak fits the device pool's remaining bytes — the
// planner's exact accounting reused as a multi-tenant admission currency.
//
// See README.md for a quickstart and DESIGN.md for the system inventory.
package vmcu

import (
	"io"

	"github.com/vmcu-project/vmcu/internal/codegen"
	"github.com/vmcu-project/vmcu/internal/cost"
	"github.com/vmcu-project/vmcu/internal/eval"
	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/ir"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/netplan"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/ops"
	"github.com/vmcu-project/vmcu/internal/plan"
	"github.com/vmcu-project/vmcu/internal/serve"
	"github.com/vmcu-project/vmcu/internal/tensor"
)

// Profile describes a simulated MCU (clock, cycle costs, energy model).
type Profile = mcu.Profile

// CortexM4 is the STM32-F411RE profile (128 KB RAM, 100 MHz).
func CortexM4() Profile { return mcu.CortexM4() }

// CortexM7 is the STM32-F767ZI profile (512 KB RAM, 216 MHz).
func CortexM7() Profile { return mcu.CortexM7() }

// Stats are operation counts with cycle/latency/energy evaluation.
type Stats = mcu.Stats

// Plan is a solved segment-level memory plan (§4): segment size, the
// bIn−bOut pointer gap, workspace, and the resulting peak footprint.
type Plan = plan.Plan

// Bottleneck describes an inverted-bottleneck module (Table 2 row).
type Bottleneck = plan.Bottleneck

// Conv2DSpec describes a dense 2-D convolution layer.
type Conv2DSpec = plan.Conv2DSpec

// PlanFC plans a fully connected layer In[M,K]·W[K,N] → Out[M,N].
func PlanFC(m, k, n int) Plan { return plan.FC(m, k, n) }

// PlanPointwise plans a 1×1 convolution over an H×W×C image with K
// output channels.
func PlanPointwise(h, w, c, k int) Plan { return plan.Pointwise(h, w, c, k) }

// PlanConv2D plans a general 2-D convolution.
func PlanConv2D(spec Conv2DSpec) Plan { return plan.Conv2D(spec) }

// PlanDepthwise plans a depthwise convolution (near in-place).
func PlanDepthwise(h, w, c, r, s, stride, pad int) Plan {
	return plan.Depthwise(h, w, c, r, s, stride, pad)
}

// PlanModule plans a fused inverted-bottleneck module (§5.2).
func PlanModule(b Bottleneck) Plan { return plan.PlanBottleneckModule(b) }

// Network is a stack of inverted-bottleneck modules.
type Network = graph.Network

// ModuleReport compares vMCU/TinyEngine/HMCOS peak RAM for one module.
type ModuleReport = graph.ModuleReport

// ExecResult reports an executed module: stats, peak RAM, verification.
type ExecResult = graph.ExecResult

// VWW returns the MCUNet-5fps-VWW backbone (Table 2, S1–S8).
func VWW() Network { return graph.VWW() }

// ImageNet returns the MCUNet-320KB-ImageNet backbone (Table 2, B1–B17).
func ImageNet() Network { return graph.ImageNet() }

// RunModule plans and executes one module on a simulated device with
// deterministic random weights, verifying the fused kernel bit-exactly
// against the golden layer composition.
func RunModule(profile Profile, cfg Bottleneck, seed int64) (ExecResult, error) {
	return graph.RunModule(profile, cfg, seed)
}

// LayerResult reports an executed single layer.
type LayerResult struct {
	Plan       Plan
	Stats      Stats
	Verified   bool
	Violations int
}

// RunPointwise executes a 1×1 convolution with the segment-aware kernel
// on the simulated profile, returning measured stats and verification.
func RunPointwise(profile Profile, h, c, k int, seed int64) (LayerResult, error) {
	st, ok, nViol, err := eval.RunVMCUPointwise(profile,
		eval.PointwiseCase{Name: "user", HW: h, C: c, K: k}, seed)
	if err != nil {
		return LayerResult{}, err
	}
	return LayerResult{
		Plan:       plan.Pointwise(h, h, c, k),
		Stats:      st,
		Verified:   ok,
		Violations: nViol,
	}, nil
}

// GenerateFCKernelC builds the paper's Figure-4 fully connected kernel in
// the loop-nest IR and lowers it to ARM-intrinsic C. scale is the
// combined requantization scale; poolCapBytes sizes the circular pool in
// the generated wrap macro.
func GenerateFCKernelC(m, k, n int, scale float64, poolCapBytes int) string {
	p := plan.FC(m, k, n)
	prog := ir.BuildFC(m, k, n, p.SegBytes, tensor.NewRequant(scale, 0))
	return codegen.EmitC(prog, codegen.Options{PoolCapBytes: poolCapBytes})
}

// KB converts bytes to the paper's 10^3-byte kilobytes.
func KB(bytes int) float64 { return eval.KB(bytes) }

// ChainPlan is the solved placement of a linear layer chain in one
// circular pool (Eq. 2 difference constraints).
type ChainPlan = plan.ChainPlan

// PlanChain places a linear sequence of per-layer plans in one circular
// pool: each layer's output becomes the next layer's input with the
// paper's solved pointer gaps, so no inter-layer copies are needed.
func PlanChain(stages []Plan) (ChainPlan, error) { return plan.PlanChain(stages) }

// RunModuleUnfused executes a non-residual stride-1 module as a
// per-layer chain instead of the fused kernel — the fusion ablation.
func RunModuleUnfused(profile Profile, cfg Bottleneck, seed int64) (ExecResult, error) {
	return graph.RunModuleUnfused(profile, cfg, seed)
}

// NetworkPlan is a whole-network, lifetime-aware placement: every module
// of a backbone scheduled into one circular pool, with per-activation live
// ranges, solved cross-module offsets, and a per-module policy choice.
type NetworkPlan = netplan.NetworkPlan

// NetworkRunResult reports a whole-network execution: the memoized plan
// plus one verified per-module result, in network order.
type NetworkRunResult = netplan.RunResult

// SchedulePolicy selects how one module is scheduled within the network
// pool: the fused kernel, a per-layer unfused chain, the disjoint
// baseline fallback, or membership in a spatial patch-split region.
type SchedulePolicy = netplan.Policy

// The scheduling policies the whole-network planner searches over.
const (
	PolicyFused    = netplan.PolicyFused
	PolicyUnfused  = netplan.PolicyUnfused
	PolicyBaseline = netplan.PolicyBaseline
	PolicySplit    = netplan.PolicySplit
)

// ScheduleOptions configure the whole-network scheduler: device budget,
// forced per-module policies, the spatial patch-split search, and the
// handoff mode for non-connectable module boundaries.
type ScheduleOptions = netplan.Options

// HandoffMode selects how non-connectable module boundaries are modeled:
// streamed seam kernels with a solved Eq. (1) gap wherever the elided
// glue op is expressible as a strided pointwise (HandoffStream, the
// default), or a fully disjoint glue placement everywhere
// (HandoffDisjoint).
type HandoffMode = netplan.HandoffMode

// The handoff modes the whole-network scheduler supports.
const (
	HandoffStream   = netplan.HandoffStream
	HandoffDisjoint = netplan.HandoffDisjoint
)

// SeamSchedule describes one streamed handoff of a network plan: the
// elided inter-module glue op scheduled as a segment-aware seam kernel.
// NetworkPlan.Seams lists them; RunNetwork verifies each bit-exactly.
type SeamSchedule = netplan.SeamSchedule

// SeamSpec describes an inter-module glue op as a strided pointwise
// convolution; PlanSeam solves its Eq. (1) memory plan.
type SeamSpec = plan.SeamSpec

// PlanSeam solves the segment-level memory plan of a streamed seam
// (strided pointwise glue op): gcd segment size, the affine closed-form
// pointer gap, and the resulting peak footprint.
func PlanSeam(s SeamSpec) Plan { return plan.PlanSeam(s) }

// RunSeam executes one streamed seam kernel on a simulated device with
// deterministic random weights, verifying it bit-exactly against the
// golden strided pointwise under the given plan.
func RunSeam(profile Profile, spec SeamSpec, p Plan, seed int64) (ExecResult, error) {
	return graph.RunSeam(profile, spec, p, seed)
}

// SplitOptions configure (or pin) the spatial patch-split dimension of
// the schedule search.
type SplitOptions = netplan.SplitOptions

// SplitSchedule describes an adopted patch-split region: the first Depth
// modules executed patch-by-patch with Patches spatial patches. It is
// exposed on NetworkPlan.Split when the search (or a pinned option)
// adopts a split.
type SplitSchedule = netplan.SplitSchedule

// PlanNetwork schedules the entire network into one circular pool under
// the profile's RAM budget: cross-module live ranges, Eq. (2) difference
// constraints over the whole module graph, a per-module policy search,
// and a spatial patch-split search over the leading modules (adopted only
// when it lowers the peak strictly below the best non-split schedule;
// see NetworkPlan.Split and NetworkPlan.NoSplitPeakBytes). Solved plans
// are memoized in a process-wide concurrency-safe cache, so repeated
// calls return the identical plan without re-solving.
func PlanNetwork(profile Profile, net Network) (*NetworkPlan, error) {
	np, _, err := netplan.Default.Plan(net, netplan.Options{BudgetBytes: profile.RAMBytes()})
	return np, err
}

// PlanNetworkWithOptions schedules the network under explicit scheduler
// options — forced per-module policies, a pinned or disabled patch split,
// and a custom budget — through the same process-wide plan cache.
func PlanNetworkWithOptions(net Network, opts ScheduleOptions) (*NetworkPlan, error) {
	np, _, err := netplan.Default.Plan(net, opts)
	return np, err
}

// RunNetwork plans the network (through the plan cache) and executes every
// module's bit-exact verification under its scheduled policy, running
// independent module verifications concurrently on a worker pool. The
// weights belong to the network: they are drawn once, from a fixed model
// seed, on its first run and kept in the plan cache, so seed picks only
// the inputs.
func RunNetwork(profile Profile, net Network, seed int64) (*NetworkRunResult, error) {
	return netplan.Run(profile, net, seed,
		netplan.Options{BudgetBytes: profile.RAMBytes()}, netplan.Default)
}

// CostEstimate is the analytic per-plan cost prediction: per-unit operation
// counts priced under a profile's cycle/energy model, split into the
// executed portion (validated bit-exactly against device counters) and the
// modeled glue of disjoint handoffs.
type CostEstimate = cost.Estimate

// CostUnit is one priced execution unit of a CostEstimate.
type CostUnit = cost.Unit

// EstimateCost predicts a solved network plan's latency and energy under a
// profile without executing it: the analytic cost model replays each
// scheduled unit's loop structure (fused/unfused/baseline kernels, the
// patch-split region with its halo recompute, streamed seams, disjoint
// handoff glue) and prices the operation counts through the profile. The
// executed portion is within ±10% of the real device counters (bit-exact
// today; the tolerance is the stated contract).
func EstimateCost(profile Profile, net Network, np *NetworkPlan) (*CostEstimate, error) {
	return netplan.EstimatePlan(profile, net, np)
}

// ScheduleObjective selects what PlanNetworkWithOptions minimizes: the
// network peak (ObjectiveMinPeak, the default) or the estimated execution
// cycles under the byte budget (ObjectiveMinLatency).
type ScheduleObjective = netplan.Objective

// The schedule objectives.
const (
	ObjectiveMinPeak    = netplan.MinPeak
	ObjectiveMinLatency = netplan.MinLatency
)

// PlanVariant is one point of a network's Pareto frontier: a solved
// schedule, the pinned options that re-derive it, and its cost estimate.
type PlanVariant = netplan.Variant

// PlanNetworkPareto enumerates the network's schedule space along the
// planner's cost-bearing dimensions (the spatial patch split's
// memory↔recompute axis and latency-driven per-module policy flips) and
// returns the non-dominated (peak bytes, est. cycles, est. energy) plan
// set, sorted by ascending peak: the first variant is memory-optimal, the
// last latency-optimal. The serving layer registers this frontier so
// admission can trade spare SRAM for speed per request.
func PlanNetworkPareto(profile Profile, net Network, opts ScheduleOptions) ([]PlanVariant, error) {
	return netplan.Pareto(profile, net, opts)
}

// Server is the multi-tenant inference serving subsystem: many concurrent
// requests for multiple registered models across a simulated fleet of MCU
// devices, each with a fixed SRAM pool. Admission is byte-exact — a
// request lands on a device only when its cached NetworkPlan peak fits
// the pool's remaining bytes, so co-resident models pack into one pool
// and over-commit is impossible by construction. Devices sharing a
// Profile form an admission shard with its own queue and lock; the fleet
// is mutable while serving (Server.AddDevice, Server.RemoveDevice, and
// the crash simulation Server.CrashDevice — displaced requests fail over
// to surviving devices or resolve with ErrServeDeviceLost), and a shard
// whose queue crosses ServeOptions.DegradeDepth degrades to
// smallest-peak admission instead of shedding. See internal/serve for
// the ledger/queue/shard design and DESIGN.md §5d/§5h.
type Server = serve.Server

// ServeOptions configure a Server: the device fleet, the per-shard
// admission queue bound, the degraded-mode threshold, the plan-cache
// bound, and the execution mode.
type ServeOptions = serve.Options

// ServeDevice describes one simulated fleet device: its MCU profile, its
// SRAM pool, and its concurrent-run slot cap.
type ServeDevice = serve.DeviceConfig

// ServeModelConfig carries a registered model's serving defaults: its
// admission priority and its maximum queue wait (deadline).
type ServeModelConfig = serve.ModelConfig

// SubmitOptions parameterize one inference request: priority, absolute
// admission deadline, and the seed of its deterministic verification input
// (the weights belong to the registered model).
type SubmitOptions = serve.SubmitOptions

// Ticket is the asynchronous handle on a submitted request: its state,
// its done channel, its result, and cancellation.
type Ticket = serve.Ticket

// ServeResult reports one finished request: the admitting device, the
// reserved peak, the verified run, and queue/sojourn timings.
type ServeResult = serve.Result

// RequestState is one stage of the request lifecycle
// (submit → planned → queued → admitted → running → done, with rejected,
// canceled, and device-lost as the terminal failure exits).
type RequestState = serve.State

// ServeMetrics is the server snapshot, derived from the server's
// always-on metric families: throughput, trailing-window latency
// percentiles, queue depth, per-device pool utilization, rejection
// counts, and plan cache stats.
type ServeMetrics = serve.Metrics

// ServeDeviceMetrics is one fleet device's snapshot within ServeMetrics.
type ServeDeviceMetrics = serve.DeviceMetrics

// ServeShardMetrics is one device group's snapshot within ServeMetrics:
// its queue state, degraded-mode counters, and churn counters.
type ServeShardMetrics = serve.ShardMetrics

// ServeExecMode selects what admitted requests execute: the full
// bit-exact verification run, or admission-only dry runs for load tests.
type ServeExecMode = serve.ExecMode

// The serving execution modes.
const (
	ExecVerify = serve.ExecVerify
	ExecDryRun = serve.ExecDryRun
)

// The serving layer's explicit rejection reasons.
var (
	ErrServeQueueFull    = serve.ErrQueueFull
	ErrServeDeadline     = serve.ErrDeadline
	ErrServeTooLarge     = serve.ErrTooLarge
	ErrServeCanceled     = serve.ErrCanceled
	ErrServeClosed       = serve.ErrClosed
	ErrServeUnknownModel = serve.ErrUnknownModel
	// ErrServeDeviceLost resolves a request whose device crashed
	// mid-request with no surviving device able to absorb the failover,
	// and rejects submissions once churn has emptied the fleet.
	ErrServeDeviceLost = serve.ErrDeviceLost
)

// NewServer builds a serving fleet and starts its per-device dispatchers.
// Register models with Server.Register, submit with Server.Submit, and
// inspect Server.Metrics; Close drains gracefully (every accepted request
// still resolves).
func NewServer(opts ServeOptions) (*Server, error) { return serve.NewServer(opts) }

// NewPlanCache returns a netplan plan cache bounded to capEntries plans
// (LRU eviction; capEntries <= 0 means unbounded), for callers that want
// to share one cache between PlanNetworkWithOptions-style planning and a
// serving fleet via ServeOptions.Cache.
func NewPlanCache(capEntries int) *netplan.Cache { return netplan.NewCacheWithCap(capEntries) }

// MemoryProfile executes a pointwise layer with occupancy tracing and
// renders an ASCII timeline of live pool bytes — the input draining while
// the output refills the freed segments, as in the paper's Figure 1.
func MemoryProfile(profile Profile, h, c, k int, seed int64, width, height int) (string, error) {
	return eval.PointwiseMemoryTrace(profile,
		eval.PointwiseCase{Name: "trace", HW: h, C: c, K: k}, seed, width, height)
}

// Tracer is the opt-in observability spine (internal/obs): bounded
// ring-buffer span storage over two clocks (host wall time and simulated
// device cycles) plus a registry of labeled metric families. A nil
// *Tracer is a valid no-op — every recording method returns immediately —
// so instrumented paths cost nothing when tracing is off. Attach one via
// ServeOptions.Tracer or ScheduleOptions.Tracer, snapshot it with
// Tracer.Snapshot, and export with WriteChromeTrace / WritePrometheus.
// See DESIGN.md §5f.
type Tracer = obs.Tracer

// TracerOptions configure NewTracer (span ring-buffer capacity).
type TracerOptions = obs.Options

// TraceSnapshot is a consistent copy of a tracer's recorded state: spans
// (oldest first), drop accounting, occupancy series, and metric families.
type TraceSnapshot = obs.Snapshot

// SpanData is one recorded span: identity (span/parent/trace IDs), name,
// kind, device, wall-clock and simulated-cycle windows, and attributes.
type SpanData = obs.SpanData

// NewTracer builds an enabled tracer. The zero TracerOptions give the
// default span capacity (obs.DefaultSpanCapacity).
func NewTracer(opts TracerOptions) *Tracer { return obs.New(opts) }

// WriteChromeTrace exports a snapshot as Chrome trace_event JSON — load
// it in chrome://tracing or Perfetto. Wall-clock spans render under
// process 1, the simulated device-cycle timeline under process 2 (cycles
// shown as microseconds), occupancy series as counter tracks.
func WriteChromeTrace(w io.Writer, snap *TraceSnapshot) error {
	return obs.WriteChromeTrace(w, snap)
}

// WritePrometheus exports a snapshot's metric families (counters, gauges,
// and histograms) in the Prometheus text exposition format.
func WritePrometheus(w io.Writer, snap *TraceSnapshot) error {
	return obs.WritePrometheus(w, snap)
}

// WindowOptions opt a labeled gauge or histogram family into windowed
// aggregation: a ring of rotating sub-windows behind each series serving
// live trailing-window quantiles (p50/p90/p99), rates, and maxima. The
// zero value disables windowing; obs.DefaultSubWindows ×
// obs.DefaultWindowWidth (10 × 1s) is the conventional live view.
type WindowOptions = obs.WindowOptions

// FlightOptions configure the tracer's tail-sampled flight recorder: the
// budgets for retained traces and for spans per retained tree; the zero
// value uses the obs.DefaultFlight* budgets. Enable with
// Tracer.EnableFlight. A serving request hands its whole span tree
// (lifecycle stages plus executed units) to the recorder at completion:
// trees whose outcome is interesting (errors, sheds, deadline or latency
// budget misses, degraded admissions, device loss, live-p99 outliers)
// are retained, everything else is discarded. Spans recorded outside a
// request's tree never reach the recorder.
type FlightOptions = obs.FlightOptions

// FlightSnapshot is a consistent copy of the flight recorder's retained
// traces and traffic stats, from Tracer.FlightSnapshot.
type FlightSnapshot = obs.FlightSnapshot

// SamplerOptions configure the tracer's admission-time head sampler
// (Tracer.EnableSampling): a fixed keep probability (Rate), or an
// adaptive mode steering the rate toward a target sampled
// requests-per-second (TargetRPS), plus the always-keep outcome classes
// that retain a flight exemplar even for head-unsampled requests.
// Without EnableSampling every request is traced, the pre-sampling
// behaviour.
type SamplerOptions = obs.SamplerOptions

// SamplerStats is the head sampler's live state (Tracer.SamplerStats,
// served by the ops plane at /debug/sampling): current rate, lifetime
// and trailing-window decision counts, and per-class keep counts.
type SamplerStats = obs.SamplerStats

// MetricFamily is one labeled metric family in a TraceSnapshot
// (TraceSnapshot.Families): name, help, kind, label keys, and the
// per-labelset series with their windowed views.
type MetricFamily = obs.FamilyData

// WriteFlightChrome exports a flight snapshot as Chrome trace JSON; each
// retained root span carries its retention reason as a "flight_reason"
// attribute.
func WriteFlightChrome(w io.Writer, fs *FlightSnapshot) error {
	return obs.WriteFlightChrome(w, fs)
}

// OpsHandler serves the live operations plane over HTTP: GET /metrics
// (Prometheus text), /healthz and /readyz (invariant and load checks),
// /debug/status (ServeMetrics JSON), and /debug/flight (retained flight
// traces as Chrome trace JSON). Mount Mux() on any net/http server. See
// DESIGN.md §5i.
type OpsHandler = ops.Handler

// NewOpsHandler builds the ops plane over a serving server and tracer
// (either may be nil: missing pieces serve degenerate 200s).
func NewOpsHandler(s *Server, tr *Tracer) *OpsHandler {
	// A nil *Server must become a nil interface, not a typed nil.
	if s == nil {
		return ops.NewHandler(nil, tr)
	}
	return ops.NewHandler(s, tr)
}

// RunNetworkTraced is RunNetwork with per-unit observability (seed again
// picks only the inputs; the weights belong to the network): every
// executed unit is recorded on tr as a KindUnit span carrying the unit's
// device counters, with the simulated cycle axis laid out cumulatively in
// the plan's unit order (each seam between its two modules). parentID and traceID link the unit spans under an
// existing span tree (0 for standalone roots); device names the simulated
// device in the exported timeline.
func RunNetworkTraced(profile Profile, net Network, seed int64, tr *Tracer,
	parentID, traceID uint64, device string) (*NetworkRunResult, error) {
	return netplan.RunTraced(profile, net, seed,
		netplan.Options{BudgetBytes: profile.RAMBytes()}, netplan.Default,
		tr, parentID, traceID, device)
}
