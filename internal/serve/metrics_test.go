package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/vmcu-project/vmcu/internal/graph"
	"github.com/vmcu-project/vmcu/internal/mcu"
	"github.com/vmcu-project/vmcu/internal/obs"
)

// TestMetricsEmptySnapshot: a freshly started server reports a fully
// coherent snapshot — zero percentiles, zero throughput, idle pools — with
// nothing submitted.
func TestMetricsEmptySnapshot(t *testing.T) {
	s, err := NewServer(Options{Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m := s.Metrics()
	if m.LatencyP50 != 0 || m.LatencyP95 != 0 || m.LatencyP99 != 0 {
		t.Errorf("empty percentiles %v/%v/%v, want zeros", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	if m.Submitted != 0 || m.Completed != 0 || m.ThroughputRPS != 0 {
		t.Errorf("empty counters: %+v", m)
	}
	if m.QueueDepth != 0 || m.QueueHighWater != 0 {
		t.Errorf("queue not idle: depth %d highwater %d", m.QueueDepth, m.QueueHighWater)
	}
	if len(m.Devices) != 1 || m.Devices[0].UsedBytes != 0 || m.Devices[0].Utilization != 0 {
		t.Errorf("device pool not idle: %+v", m.Devices)
	}
}

// TestMetricsSingleSampleWindow: after exactly one completion the latency
// window holds one sample, and every percentile reports it exactly.
func TestMetricsSingleSampleWindow(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Mode:    ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("vww", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.Result()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Completed != 1 {
		t.Fatalf("completed %d, want 1", m.Completed)
	}
	if m.LatencyP50 != m.LatencyP95 || m.LatencyP95 != m.LatencyP99 {
		t.Errorf("single-sample percentiles diverge: %v/%v/%v", m.LatencyP50, m.LatencyP95, m.LatencyP99)
	}
	if m.LatencyP50 != res.Latency {
		t.Errorf("p50 %v != the lone completion's latency %v", m.LatencyP50, res.Latency)
	}
	if m.LatencyP50 <= 0 {
		t.Errorf("lone sample %v not positive", m.LatencyP50)
	}
	if m.ThroughputRPS <= 0 {
		t.Errorf("throughput %v not positive after a completion", m.ThroughputRPS)
	}
}

// TestMetricsBudgetCountersIdle: budget counters stay untouched when no
// request carries a latency budget.
func TestMetricsBudgetCountersIdle(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Mode:    ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Register("vww", graph.VWW(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit("vww", SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Result(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.LatencyBudgetMet != 0 || m.LatencyBudgetMissed != 0 {
		t.Errorf("budget counters moved without budgets: met %d missed %d",
			m.LatencyBudgetMet, m.LatencyBudgetMissed)
	}
}

// familyTotal sums a registry snapshot's series of one family whose
// labels match every key=value in filter — counters by count, gauges by
// value.
func familyTotal(fams []obs.FamilyData, name string, filter map[string]string) float64 {
	total := 0.0
	for _, f := range fams {
		if f.Name != name {
			continue
		}
	series:
		for _, sr := range f.Series {
			for i, key := range f.Keys {
				if v, ok := filter[key]; ok && sr.Values[i] != v {
					continue series
				}
			}
			total += float64(sr.Counter) + sr.Gauge
		}
	}
	return total
}

// TestMetricsConservationUntraced drives an untraced server through every
// terminal outcome — done, canceled, deadline-shed, queue-full, and
// device-lost (a crash while the gate holds a request mid-flight, with
// no surviving device) — in seeded proportions. At quiescence every
// accepted ticket must be accounted exactly once, and every Metrics()
// counter must equal the matching family sum in the server's registry,
// per shard as well as server-wide: Metrics is derived from the
// families, with no second store to drift.
func TestMetricsConservationUntraced(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			nDone, nFull := 2+rng.Intn(6), 1+rng.Intn(4)
			const queueCap = 2
			peak := peakOf(t, tinyModel())
			s, err := NewServer(Options{
				Devices:  []DeviceConfig{{Name: "a", Profile: mcu.CortexM4(), PoolBytes: peak, Slots: 1}},
				QueueCap: queueCap,
				Mode:     ExecDryRun,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const holdSeed = -1
			gate := newExecGate(func(*device) bool { return true })
			s.testExecGate = func(d *device, r *request) {
				if r.seed == holdSeed {
					gate.hook(d, r)
				}
			}
			if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
				t.Fatal(err)
			}
			big := tinyModel()
			big.Name, big.Modules[0].H, big.Modules[0].W = "big", 32, 32
			if err := s.Register("big", big, ModelConfig{}); !errors.Is(err, ErrTooLarge) {
				t.Fatalf("registering a model no pool fits: %v, want ErrTooLarge", err)
			}

			met := 0
			for i := 0; i < nDone; i++ {
				budget := time.Nanosecond // no variant is that fast: a miss
				if rng.Intn(2) == 0 {
					budget, met = time.Hour, met+1
				}
				tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i), LatencyBudget: budget})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tk.Result(); err != nil {
					t.Fatal(err)
				}
			}

			// Hold one request mid-flight so the pool stays full.
			held, err := s.Submit("tiny", SubmitOptions{Seed: holdSeed})
			if err != nil {
				t.Fatal(err)
			}
			gate.waitHeld(t, 1)
			shed, err := s.Submit("tiny", SubmitOptions{Deadline: time.Now().Add(-time.Second)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := shed.Result(); !errors.Is(err, ErrDeadline) {
				t.Fatalf("expired request: %v, want ErrDeadline", err)
			}
			var queued []*Ticket
			for i := 0; i < queueCap; i++ {
				tk, err := s.Submit("tiny", SubmitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				queued = append(queued, tk)
			}
			for i := 0; i < nFull; i++ {
				if _, err := s.Submit("tiny", SubmitOptions{}); !errors.Is(err, ErrQueueFull) {
					t.Fatalf("submit into a full queue: %v, want ErrQueueFull", err)
				}
			}
			if !queued[0].Cancel() {
				t.Fatal("cancel of a queued request behind a held one failed")
			}
			// The crash strands the held request and evacuates the queued
			// one: no surviving pool can take either.
			if _, err := s.CrashDevice("a"); err != nil {
				t.Fatal(err)
			}
			close(gate.release)
			for _, tk := range []*Ticket{held, queued[1]} {
				if _, err := tk.Result(); !errors.Is(err, ErrDeviceLost) {
					t.Fatalf("stranded request: %v, want ErrDeviceLost", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			m := s.Metrics()
			assertAccounting(t, m)
			want := Metrics{
				Submitted: uint64(nDone + 2 + queueCap), Completed: uint64(nDone),
				Canceled: 1, ShedDeadline: 1, DeviceLost: 2, DeviceCrashes: 1,
				RejectedQueueFull: uint64(nFull), RejectedTooLarge: 1,
				LatencyBudgetMet: uint64(met), LatencyBudgetMissed: uint64(nDone - met),
			}
			got := Metrics{
				Submitted: m.Submitted, Completed: m.Completed, Failed: m.Failed,
				Canceled: m.Canceled, ShedDeadline: m.ShedDeadline, DeviceLost: m.DeviceLost,
				DeviceCrashes: m.DeviceCrashes, RejectedQueueFull: m.RejectedQueueFull,
				RejectedTooLarge: m.RejectedTooLarge, LatencyBudgetMet: m.LatencyBudgetMet,
				LatencyBudgetMissed: m.LatencyBudgetMissed,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("counters %+v, want %+v", got, want)
			}

			fams := s.reg.Families()
			sum := func(name string, filter map[string]string) uint64 {
				return uint64(familyTotal(fams, name, filter))
			}
			outcome := func(o string) map[string]string { return map[string]string{"outcome": o} }
			for _, c := range []struct {
				name string
				got  uint64
				want uint64
			}{
				{"Submitted", m.Submitted, sum(metricSubmitted, nil)},
				{"Completed", m.Completed, sum(metricOutcomes, outcome(outcomeDone))},
				{"Failed", m.Failed, sum(metricOutcomes, outcome(outcomeFailed))},
				{"Canceled", m.Canceled, sum(metricOutcomes, outcome(outcomeCanceled))},
				{"ShedDeadline", m.ShedDeadline, sum(metricOutcomes, outcome(outcomeShedDeadline))},
				{"DeviceLost", m.DeviceLost, sum(metricOutcomes, outcome(outcomeDeviceLost))},
				{"RejectedQueueFull", m.RejectedQueueFull, sum(metricOutcomes, outcome(outcomeQueueFull))},
				{"RejectedTooLarge", m.RejectedTooLarge, sum(metricRejectedTooLarge, nil)},
				{"Requeued", m.Requeued, sum(metricRequeued, nil)},
				{"VariantUpgrades", m.VariantUpgrades, sum(metricVariantUpgrades, nil)},
				{"DegradedAdmissions", m.DegradedAdmissions, sum(metricDegradedAdmissions, nil)},
				{"DegradedEngaged", m.DegradedEngaged, sum(metricDegradedEngaged, nil)},
				{"DeviceCrashes", m.DeviceCrashes, sum(metricDeviceCrashes, nil)},
				{"LatencyBudgetMet", m.LatencyBudgetMet, sum(metricLatencyBudget, map[string]string{"result": "met"})},
				{"LatencyBudgetMissed", m.LatencyBudgetMissed, sum(metricLatencyBudget, map[string]string{"result": "missed"})},
				{"QueueHighWater", uint64(m.QueueHighWater), sum(metricQueueHighWater, nil)},
			} {
				if c.got != c.want {
					t.Errorf("Metrics.%s = %d, registry family sum = %d", c.name, c.got, c.want)
				}
			}
			// The per-shard shares agree too, including the device-lost
			// outcomes, which carry the shard the loss was charged to.
			for _, sh := range m.Shards {
				in := func(extra map[string]string) map[string]string {
					f := map[string]string{"shard": sh.Key}
					for k, v := range extra {
						f[k] = v
					}
					return f
				}
				if want := sum(metricOutcomes, in(outcome(outcomeDeviceLost))); sh.DeviceLost != want || sh.DeviceLost != 2 {
					t.Errorf("shard %s: DeviceLost %d, family %d, want 2", sh.Key, sh.DeviceLost, want)
				}
				if want := sum(metricSubmitted, in(nil)); sh.Submitted != want {
					t.Errorf("shard %s: Submitted %d, family %d", sh.Key, sh.Submitted, want)
				}
				if want := sum(metricOutcomes, in(outcome(outcomeDone))); sh.Completed != want {
					t.Errorf("shard %s: Completed %d, family %d", sh.Key, sh.Completed, want)
				}
				if want := sum(metricOutcomes, in(outcome(outcomeShedDeadline))); sh.ShedDeadline != want {
					t.Errorf("shard %s: ShedDeadline %d, family %d", sh.Key, sh.ShedDeadline, want)
				}
			}
		})
	}
}

// TestTerminalMetricsPathAllocatesNothing guards the always-on families'
// per-request cost on an untraced server: once warm, the counters-only
// terminal path — outcome counter, latency Observe, pool gauge — must not
// allocate, or the admission flood would pay for metrics in GC.
func TestTerminalMetricsPathAllocatesNothing(t *testing.T) {
	s, err := NewServer(Options{
		Devices: []DeviceConfig{{Name: "m4", Profile: mcu.CortexM4()}},
		Mode:    ExecDryRun,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Register("tiny", tinyModel(), ModelConfig{}); err != nil {
		t.Fatal(err)
	}
	// Warm the resolve-once handle caches through the real path.
	for i := 0; i < 8; i++ {
		tk, err := s.Submit("tiny", SubmitOptions{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Result(); err != nil {
			t.Fatal(err)
		}
	}
	sh := s.shards[0]
	sh.mu.Lock()
	d := sh.devices[0]
	sh.mu.Unlock()
	req := &request{mdl: s.models["tiny"], submitted: time.Now()}
	// Fill the latency window's sample reservoir first, so the measured
	// runs observe into grown storage.
	for i := 0; i < 2*obs.DefaultWindowSampleCap; i++ {
		s.traceComplete(d, req, 0, time.Millisecond, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.traceComplete(d, req, 0, time.Millisecond, nil)
		d.tracePoolUsed()
	})
	if allocs != 0 {
		t.Errorf("untraced terminal metrics path allocates %v times per request, want 0", allocs)
	}
}
