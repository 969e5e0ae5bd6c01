// Command vmcu-serve drives the multi-tenant serving subsystem with a
// synthetic workload over a simulated MCU fleet and reports a
// machine-readable snapshot: sustained throughput, sojourn-latency
// percentiles, admission rejections, and per-device pool utilization.
//
// Two load-generator shapes are supported:
//
//   - Closed loop (default): -concurrency workers each submit a request,
//     wait for it, and repeat until -requests have been issued. Measures
//     the fleet's sustainable service rate.
//   - Open loop (-open): requests arrive on a fixed clock at -rate
//     submissions per second for -duration, regardless of completions.
//     Measures shed behaviour under offered load (queue-full rejections
//     are the signal, not a failure).
//
// Usage:
//
//	vmcu-serve                                     # closed loop, m4+m7 fleet
//	vmcu-serve -requests 128 -mix vww=7,imagenet=1 # heavier mixed closed loop
//	vmcu-serve -open -rate 200 -duration 3s -dry   # admission-only open loop
//	vmcu-serve -seed 42 -requests 64               # reproducible CI run
//	vmcu-serve -pareto -latency-budget 600ms       # frontier variants + budget accounting
//	vmcu-serve -churn-every 500ms                  # crash+replace a device on a cycle during load
//	vmcu-serve -degrade-depth 16                   # engage degraded mode at queue depth 16
//	vmcu-serve -o serve-snapshot.json              # write the JSON snapshot
//	vmcu-serve -open -duration 1h -listen :9090    # long run with live ops endpoints
//	vmcu-serve -flight-out flight.json             # dump tail-sampled exemplar traces
//
// With -listen the process serves the live ops plane while load runs:
// GET /metrics (Prometheus text, labeled windowed families), /healthz,
// /readyz, /debug/status (JSON metrics), /debug/flight (retained
// interesting traces as Chrome trace JSON). SIGINT/SIGTERM shut down
// gracefully: generation stops, in-flight requests drain, and every
// requested artifact (-o, -trace-out, -prom-out, -flight-out) is still
// written.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/vmcu-project/vmcu"
)

// DeviceSnapshot is one fleet device's JSON row.
type DeviceSnapshot struct {
	Name            string  `json:"name"`
	PoolKB          float64 `json:"pool_kb"`
	PeakUtilization float64 `json:"peak_pool_utilization"`
	Admitted        uint64  `json:"admitted"`
	Completed       uint64  `json:"completed"`
}

// ShardSnapshot is one device group's JSON row: its queue state and its
// degraded-mode and churn counters.
type ShardSnapshot struct {
	Key                string `json:"key"`
	Devices            int    `json:"devices"`
	QueueHighWater     int    `json:"queue_high_water"`
	Degraded           bool   `json:"degraded"`
	DegradedEngaged    uint64 `json:"degraded_engaged"`
	DegradedAdmissions uint64 `json:"degraded_admissions"`
	Requeued           uint64 `json:"requeued"`
	DeviceLost         uint64 `json:"device_lost"`
	DeviceCrashes      uint64 `json:"device_crashes"`
}

// Snapshot is the JSON artifact the load generator emits.
type Snapshot struct {
	Loop            string `json:"loop"` // "closed" | "open"
	Mode            string `json:"mode"` // "verify" | "dry"
	Mix             string `json:"mix"`
	Submitted       uint64 `json:"submitted"`
	Completed       uint64 `json:"completed"`
	Failed          uint64 `json:"failed"`
	RejectedFull    uint64 `json:"rejected_queue_full"`
	ShedDeadline    uint64 `json:"shed_deadline"`
	VariantUpgrades uint64 `json:"variant_upgrades"`
	BudgetMet       uint64 `json:"latency_budget_met"`
	BudgetMissed    uint64 `json:"latency_budget_missed"`
	// Churn accounting: requests displaced by a crash and re-queued onto
	// a survivor, requests no device could absorb (ErrServeDeviceLost),
	// and the crash count the -churn-every cycle drove.
	Requeued      uint64 `json:"requeued"`
	DeviceLost    uint64 `json:"device_lost"`
	DeviceCrashes uint64 `json:"device_crashes"`
	// Degraded-mode accounting across shards.
	DegradedEngaged    uint64           `json:"degraded_engaged"`
	DegradedAdmissions uint64           `json:"degraded_admissions"`
	SustainedRPS       float64          `json:"sustained_rps"`
	LatencyP50Ms       float64          `json:"latency_p50_ms"`
	LatencyP95Ms       float64          `json:"latency_p95_ms"`
	LatencyP99Ms       float64          `json:"latency_p99_ms"`
	QueueHighWater     int              `json:"queue_high_water"`
	Shards             []ShardSnapshot  `json:"shards"`
	Devices            []DeviceSnapshot `json:"devices"`
}

// parseFleet turns "m4,m7,m7" into device configs with unique names.
func parseFleet(spec string) ([]vmcu.ServeDevice, error) {
	var out []vmcu.ServeDevice
	for i, part := range strings.Split(spec, ",") {
		var prof vmcu.Profile
		switch strings.TrimSpace(part) {
		case "m4":
			prof = vmcu.CortexM4()
		case "m7":
			prof = vmcu.CortexM7()
		default:
			return nil, fmt.Errorf("unknown device %q (want m4 or m7)", part)
		}
		out = append(out, vmcu.ServeDevice{
			Name:    fmt.Sprintf("%s-%d", strings.TrimSpace(part), i),
			Profile: prof,
		})
	}
	return out, nil
}

// parseMix turns "vww=7,imagenet=1" into a weighted round-robin pattern.
func parseMix(spec string) ([]string, error) {
	var pattern []string
	for _, part := range strings.Split(spec, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q is not model=weight", part)
		}
		w, err := strconv.Atoi(weightStr)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("mix entry %q has bad weight", part)
		}
		if name != "vww" && name != "imagenet" {
			return nil, fmt.Errorf("mix model %q unknown (want vww or imagenet)", name)
		}
		for i := 0; i < w; i++ {
			pattern = append(pattern, name)
		}
	}
	if len(pattern) == 0 {
		return nil, errors.New("empty mix")
	}
	return pattern, nil
}

// checkLoad rejects load-generator flags that cannot drive traffic: a
// non-positive open-loop rate, or a closed loop with no requests or no
// workers.
func checkLoad(open bool, rate float64, requests, concurrency int) error {
	switch {
	case open && rate <= 0:
		return fmt.Errorf("open-loop -rate must be positive, got %v", rate)
	case !open && requests <= 0:
		return fmt.Errorf("closed-loop -requests must be positive, got %d", requests)
	case !open && concurrency <= 0:
		return fmt.Errorf("closed-loop -concurrency must be positive, got %d", concurrency)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "vmcu-serve: %v\n", err)
	os.Exit(1)
}

// writeExport writes one tracer export ("-" means stdout).
func writeExport(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	fleet := flag.String("devices", "m4,m7", "fleet spec: comma list of m4/m7")
	queueCap := flag.Int("queue", 256, "admission queue bound (shed-on-full)")
	slots := flag.Int("slots", 8, "concurrent-run slots per device")
	mixSpec := flag.String("mix", "vww=7,imagenet=1", "workload mix, model=weight pairs")
	requests := flag.Int("requests", 32, "closed loop: total requests to issue")
	concurrency := flag.Int("concurrency", 8, "closed loop: worker count")
	open := flag.Bool("open", false, "open loop: submit on a fixed clock instead")
	rate := flag.Float64("rate", 50, "open loop: offered submissions per second")
	duration := flag.Duration("duration", 2*time.Second, "open loop: generation window")
	dry := flag.Bool("dry", false, "admission-only dry runs (no kernel execution)")
	deadline := flag.Duration("deadline", 0, "per-request admission deadline (0 = none)")
	degradeDepth := flag.Int("degrade-depth", 0, "queue depth engaging degraded (smallest-peak) admission; 0 = 3/4 of -queue, negative disables")
	churnEvery := flag.Duration("churn-every", 0, "crash one device and add a replacement on this interval during load (0 = no churn)")
	seed := flag.Int64("seed", 0, "base input seed; request i runs its model on the input of seed+i, so runs are reproducible (the weights belong to the model)")
	pareto := flag.Bool("pareto", false, "register each model's Pareto plan-variant frontier (admission picks the fastest fitting variant)")
	latencyBudget := flag.Duration("latency-budget", 0, "per-request on-device inference budget in simulated device time (0 = none)")
	out := flag.String("o", "", "write the JSON snapshot to this file (default stdout)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON of every request lifecycle to this file (enables tracing)")
	promOut := flag.String("prom-out", "", "write a Prometheus text-format metrics dump to this file (enables tracing)")
	listen := flag.String("listen", "", "serve live ops endpoints (/metrics /healthz /readyz /debug/status /debug/flight) on this address, e.g. :9090 (enables tracing)")
	flightOut := flag.String("flight-out", "", "write the retained flight traces as Chrome trace JSON at exit (enables tracing)")
	sampleRate := flag.Float64("sample-rate", 1, "head-sampling keep probability for request traces in [0,1]; 1 traces every request, lower rates make tracing saturation-proof (counters and always-keep flight classes stay 100%)")
	sampleTargetRPS := flag.Float64("sample-target-rps", 0, "adaptive head sampling: steer the keep probability toward this many sampled requests/sec (overrides a fixed -sample-rate; 0 = fixed-rate mode)")
	flag.Parse()

	devices, err := parseFleet(*fleet)
	if err != nil {
		fatal(err)
	}
	if err := checkLoad(*open, *rate, *requests, *concurrency); err != nil {
		fatal(err)
	}
	pattern, err := parseMix(*mixSpec)
	if err != nil {
		fatal(err)
	}
	mode := vmcu.ExecVerify
	if *dry {
		mode = vmcu.ExecDryRun
	}
	for i := range devices {
		devices[i].Slots = *slots
	}
	var tracer *vmcu.Tracer
	if *traceOut != "" || *promOut != "" || *listen != "" || *flightOut != "" {
		tracer = vmcu.NewTracer(vmcu.TracerOptions{})
		// Always-on tail sampling: every request's span tree is buffered
		// and retained only if its terminal outcome is interesting.
		tracer.EnableFlight(vmcu.FlightOptions{})
		if *sampleRate < 1 || *sampleTargetRPS > 0 {
			// Head sampling on top: the keep/drop decision moves to
			// admission, so unsampled requests never build a span tree
			// at all (counters and always-keep flight classes are
			// unaffected). /debug/sampling shows the live state.
			tracer.EnableSampling(vmcu.SamplerOptions{
				Rate:      *sampleRate,
				TargetRPS: *sampleTargetRPS,
			})
		}
	}
	s, err := vmcu.NewServer(vmcu.ServeOptions{
		Devices: devices, QueueCap: *queueCap, DegradeDepth: *degradeDepth,
		Mode: mode, Tracer: tracer,
	})
	if err != nil {
		fatal(err)
	}
	mdlCfg := vmcu.ServeModelConfig{Pareto: *pareto, LatencyBudget: *latencyBudget}
	if err := s.Register("vww", vmcu.VWW(), mdlCfg); err != nil {
		fatal(err)
	}
	if err := s.Register("imagenet", vmcu.ImageNet(), mdlCfg); err != nil {
		fatal(err)
	}

	// SIGINT/SIGTERM stop load generation; the normal drain-and-report
	// path then runs, so every requested artifact is still written.
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	// The ops plane serves live state while load runs; it keeps serving
	// through the drain so a final scrape sees the terminal counters.
	var opsSrv *http.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fatal(fmt.Errorf("ops listener: %w", err))
		}
		opsSrv = &http.Server{Handler: vmcu.NewOpsHandler(s, tracer).Mux()}
		fmt.Fprintf(os.Stderr, "vmcu-serve: ops endpoints on http://%s\n", ln.Addr())
		go func() {
			if err := opsSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "vmcu-serve: ops server: %v\n", err)
			}
		}()
	}

	submit := func(i int) (*vmcu.Ticket, error) {
		opts := vmcu.SubmitOptions{Seed: *seed + int64(i)}
		if *deadline > 0 {
			opts.Deadline = time.Now().Add(*deadline)
		}
		return s.Submit(pattern[i%len(pattern)], opts)
	}

	// The churn cycle rolls the fleet while load runs: each tick adds a
	// fresh replacement device (same profile), then crashes the oldest —
	// in that order, so displaced requests always have a survivor to fail
	// over to. Crash/requeue/lost outcomes land in the snapshot counters.
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if *churnEvery > 0 {
		type member struct {
			name string
			prof vmcu.Profile
		}
		fleet := make([]member, 0, len(devices))
		for _, d := range devices {
			fleet = append(fleet, member{d.Name, d.Profile})
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(*churnEvery)
			defer tick.Stop()
			for gen := 0; ; gen++ {
				select {
				case <-churnStop:
					return
				case <-tick.C:
				}
				victim := fleet[0]
				repl := member{fmt.Sprintf("%s-r%d", victim.name, gen), victim.prof}
				if err := s.AddDevice(vmcu.ServeDevice{
					Name: repl.name, Profile: repl.prof, Slots: *slots,
				}); err != nil {
					fmt.Fprintf(os.Stderr, "vmcu-serve: churn add: %v\n", err)
					continue
				}
				if _, err := s.CrashDevice(victim.name); err != nil {
					fmt.Fprintf(os.Stderr, "vmcu-serve: churn crash: %v\n", err)
				}
				fleet = append(fleet[1:], repl)
			}
		}()
	}

	start := time.Now()
	var issued int
	if *open {
		interval := time.Duration(float64(time.Second) / *rate)
		var tickets []*vmcu.Ticket
		for next := start; time.Since(start) < *duration && ctx.Err() == nil; next = next.Add(interval) {
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
				}
			}
			if ctx.Err() != nil {
				break
			}
			tk, err := submit(issued)
			issued++
			if err != nil {
				continue // shed-on-full is the open-loop signal, tracked in metrics
			}
			tickets = append(tickets, tk)
		}
		for _, tk := range tickets {
			_, _ = tk.Result()
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int, *requests)
		for i := 0; i < *requests; i++ {
			next <- i
		}
		close(next)
		for w := 0; w < *concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					if ctx.Err() != nil {
						return
					}
					tk, err := submit(i)
					if err != nil {
						fmt.Fprintf(os.Stderr, "vmcu-serve: submit %d: %v\n", i, err)
						continue
					}
					if _, err := tk.Result(); err != nil {
						fmt.Fprintf(os.Stderr, "vmcu-serve: request %d: %v\n", i, err)
					}
				}
			}()
		}
		wg.Wait()
	}
	close(churnStop)
	churnWG.Wait()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "vmcu-serve: signal received, draining in-flight requests")
	}
	if err := s.Close(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if tracer != nil {
		ts := tracer.Snapshot()
		if *traceOut != "" {
			if err := writeExport(*traceOut, func(w io.Writer) error {
				return vmcu.WriteChromeTrace(w, ts)
			}); err != nil {
				fatal(err)
			}
		}
		if *promOut != "" {
			if err := writeExport(*promOut, func(w io.Writer) error {
				return vmcu.WritePrometheus(w, ts)
			}); err != nil {
				fatal(err)
			}
		}
		if *flightOut != "" {
			fs := tracer.FlightSnapshot()
			if err := writeExport(*flightOut, func(w io.Writer) error {
				return vmcu.WriteFlightChrome(w, fs)
			}); err != nil {
				fatal(err)
			}
		}
	}
	if opsSrv != nil {
		// Bounded shutdown: a stuck scrape client must not wedge exit.
		sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = opsSrv.Shutdown(sctx)
		cancel()
	}

	m := s.Metrics()
	snap := Snapshot{
		Loop:            "closed",
		Mode:            "verify",
		Mix:             *mixSpec,
		Submitted:       m.Submitted,
		Completed:       m.Completed,
		Failed:          m.Failed,
		RejectedFull:    m.RejectedQueueFull,
		ShedDeadline:    m.ShedDeadline,
		VariantUpgrades: m.VariantUpgrades,
		BudgetMet:       m.LatencyBudgetMet,
		BudgetMissed:    m.LatencyBudgetMissed,

		Requeued:           m.Requeued,
		DeviceLost:         m.DeviceLost,
		DeviceCrashes:      m.DeviceCrashes,
		DegradedEngaged:    m.DegradedEngaged,
		DegradedAdmissions: m.DegradedAdmissions,

		SustainedRPS:   float64(m.Completed) / elapsed.Seconds(),
		LatencyP50Ms:   float64(m.LatencyP50.Microseconds()) / 1e3,
		LatencyP95Ms:   float64(m.LatencyP95.Microseconds()) / 1e3,
		LatencyP99Ms:   float64(m.LatencyP99.Microseconds()) / 1e3,
		QueueHighWater: m.QueueHighWater,
	}
	for _, sh := range m.Shards {
		snap.Shards = append(snap.Shards, ShardSnapshot{
			Key:                sh.Key,
			Devices:            sh.Devices,
			QueueHighWater:     sh.QueueHighWater,
			Degraded:           sh.Degraded,
			DegradedEngaged:    sh.DegradedEngaged,
			DegradedAdmissions: sh.DegradedAdmissions,
			Requeued:           sh.Requeued,
			DeviceLost:         sh.DeviceLost,
			DeviceCrashes:      sh.DeviceCrashes,
		})
	}
	if *open {
		snap.Loop = "open"
	}
	if *dry {
		snap.Mode = "dry"
	}
	for _, d := range m.Devices {
		snap.Devices = append(snap.Devices, DeviceSnapshot{
			Name:            d.Name,
			PoolKB:          vmcu.KB(d.CapacityBytes),
			PeakUtilization: d.PeakUtilization,
			Admitted:        d.Admitted,
			Completed:       d.Completed,
		})
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}
