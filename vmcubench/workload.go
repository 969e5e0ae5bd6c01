package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
	"github.com/vmcu-project/vmcu/internal/serve"
)

// workload is one traffic mix. The reasons each exists are in the package
// comment and in BENCHMARK.json.
type workload struct {
	name   string
	mode   serve.ExecMode
	fleet  []serve.DeviceConfig
	models []string // the first is the common one; a second is drawn 1 in 8
	// Closed loop: clients > 0. Open loop: rate > 0 requests per second.
	clients int
	rate    float64
	// Open-loop server settings (zero for the closed loops).
	queueCap, degradeDepth int
	maxQueueWait           time.Duration
	pareto                 bool
	// ops installs the production ops tracer on the server: flight
	// recorder plus fixed 1% head sampling, what vmcu-serve -listen
	// -sample-rate 0.01 runs.
	ops bool
}

// floodRate is the open-loop offered rate: about 30% of the dry-run knee
// on a 2-core host, so latency reads below saturation and stays repeatable.
const floodRate = 50000

func m4Pair() []serve.DeviceConfig {
	return []serve.DeviceConfig{
		{Name: "m4a", Profile: mcu.CortexM4()},
		{Name: "m4b", Profile: mcu.CortexM4()},
	}
}

func floodFleet() []serve.DeviceConfig {
	return []serve.DeviceConfig{
		{Name: "m4", Profile: mcu.CortexM4(), Slots: 8},
		{Name: "m7", Profile: mcu.CortexM7(), Slots: 8},
	}
}

func flood(name string, ops bool) workload {
	return workload{
		name: name, mode: serve.ExecDryRun, fleet: floodFleet(),
		models: []string{"vww", "imagenet"}, rate: floodRate,
		queueCap: 4096, degradeDepth: 512, maxQueueWait: 100 * time.Millisecond,
		pareto: true, ops: ops,
	}
}

var workloads = map[string]workload{
	"verify-vww": {name: "verify-vww", mode: serve.ExecVerify, fleet: m4Pair(),
		models: []string{"vww"}, clients: 2},
	"verify-imagenet": {name: "verify-imagenet", mode: serve.ExecVerify, fleet: m4Pair(),
		models: []string{"imagenet"}, clients: 2},
	"admit-flood":     flood("admit-flood", false),
	"admit-flood-ops": flood("admit-flood-ops", true),
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// networks maps the registered model names to their backbones.
var networks = map[string]func() graph.Network{"vww": graph.VWW, "imagenet": graph.ImageNet}

// splitmix64 is the SplitMix64 finalizer: a bijective mix, so hashing
// (seed, index) gives independent, reproducible draws without shared
// generator state between client goroutines.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// request is one generated inference request.
type request struct {
	model string
	seed  int64
}

// request returns request i of the stream the benchmark seed draws: the
// model (one in eight is the second model, when there is one) and the
// weight seed the server executes with.
func (w workload) request(seed int64, i uint64) request {
	h := splitmix64(uint64(seed) ^ splitmix64(i))
	m := w.models[0]
	if len(w.models) > 1 && h%8 == 0 {
		m = w.models[1]
	}
	// 31 bits keep seed+module offsets far from int64 overflow.
	return request{model: m, seed: int64(h >> 33)}
}

// newServer builds the workload's server, registers its models, and
// serves one warm-up request per model: the set-up a user pays before the
// first real request. Each call uses a fresh server and plan cache. It
// also returns the server's ops tracer (nil unless w.ops).
func (w workload) newServer() (*serve.Server, *obs.Tracer, error) {
	var tr *obs.Tracer
	if w.ops {
		tr = obs.New(obs.Options{})
		tr.EnableFlight(obs.FlightOptions{})
		tr.EnableSampling(obs.SamplerOptions{Rate: 0.01})
	}
	s, err := serve.NewServer(serve.Options{
		Devices:      w.fleet,
		QueueCap:     w.queueCap,
		DegradeDepth: w.degradeDepth,
		Mode:         w.mode,
		Tracer:       tr,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, m := range w.models {
		cfg := serve.ModelConfig{Pareto: w.pareto, MaxQueueWait: w.maxQueueWait}
		if err := s.Register(m, networks[m](), cfg); err != nil {
			_ = s.Close() // the registration error is the one to report
			return nil, nil, err
		}
	}
	for _, m := range w.models {
		tk, err := s.Submit(m, serve.SubmitOptions{})
		if err == nil {
			_, err = tk.Result()
		}
		if err != nil {
			_ = s.Close() // the warm-up error is the one to report
			return nil, nil, fmt.Errorf("warm-up %s: %w", m, err)
		}
	}
	return s, tr, nil
}

// setupRuns is how many cold set-ups a run times: one takes a few
// milliseconds and swings by a fifth, so setup_s is their median.
const setupRuns = 5

// setup times setupRuns cold set-ups and returns the last server and its
// ops tracer, ready for the timed phase, with every duration in seconds.
func (w workload) setup() (*serve.Server, *obs.Tracer, []float64, error) {
	var times []float64
	var s *serve.Server
	var tr *obs.Tracer
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			_ = s.Close() // an idle server drains at once
		}
		runtime.GC() // each set-up starts from the same collector state
		t0 := time.Now()
		var err error
		if s, tr, err = w.newServer(); err != nil {
			return nil, nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, tr, times, nil
}
