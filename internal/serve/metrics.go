package serve

import (
	"math"
	"time"

	"github.com/vmcu-project/vmcu/internal/netplan"
)

// DeviceMetrics is one fleet device's snapshot. Devices removed or
// crashed out of the fleet no longer appear.
type DeviceMetrics struct {
	Name string
	// Shard is the device group (profile name) the device serves in.
	Shard string
	// CapacityBytes is the SRAM pool size; UsedBytes the reserved bytes at
	// snapshot time; PeakUsedBytes the lifetime high-water mark (never
	// above CapacityBytes — the ledger invariant).
	CapacityBytes int
	UsedBytes     int
	PeakUsedBytes int
	// Utilization and PeakUtilization are the byte ratios of the above.
	Utilization     float64
	PeakUtilization float64
	// Residents is the number of co-resident requests holding
	// reservations; Active the subset currently running.
	Residents int
	Active    int
	// Admitted/Refused are the ledger's lifetime reservation counts;
	// Completed the requests that finished successfully on this device.
	Admitted  uint64
	Refused   uint64
	Completed uint64
	// Draining marks a device mid-RemoveDevice: finishing in-flight work,
	// taking nothing new.
	Draining bool
}

// ShardMetrics is one device group's snapshot.
type ShardMetrics struct {
	// Key is the group identity: the shared mcu.Profile's name.
	Key string
	// Devices counts the shard's live (non-removed) devices.
	Devices int
	// QueueDepth and QueueHighWater report this shard's own queue.
	QueueDepth     int
	QueueHighWater int
	// Degraded reports whether the shard is currently in degraded mode;
	// DegradedAdmissions counts admissions made in it (smallest-peak
	// variant), DegradedEngaged how many times the mode engaged.
	Degraded           bool
	DegradedAdmissions uint64
	DegradedEngaged    uint64
	// Submitted/Completed/ShedDeadline are this shard's shares of the
	// server-wide counters; Requeued counts churn-displaced requests this
	// shard absorbed; DeviceLost requests stranded here; DeviceCrashes
	// simulated crashes of this shard's devices.
	Submitted     uint64
	Completed     uint64
	ShedDeadline  uint64
	Requeued      uint64
	DeviceLost    uint64
	DeviceCrashes uint64
}

// Metrics is the server snapshot: counters, throughput, latency
// percentiles, per-shard queue state, per-device pools, and plan-cache
// stats. Every counter, the high-water marks, and the percentiles are
// read from the server's metric families (instruments.go) — the same
// numbers /metrics exports — and the rest from live queue and pool state.
type Metrics struct {
	Uptime time.Duration
	// Submitted counts accepted submissions (tickets created). Each one
	// resolves into exactly one of Completed, Failed, Canceled,
	// ShedDeadline, or DeviceLost; the difference is the work still in
	// flight. Requests re-queued after a device crash count once.
	Submitted uint64
	Completed uint64
	Failed    uint64
	Canceled  uint64
	// RejectedQueueFull counts submit-time rejections (no ticket was
	// created); RejectedTooLarge counts registrations refused because the
	// model's peak exceeds every pool; ShedDeadline counts queued requests
	// shed at their admission deadline.
	RejectedQueueFull uint64
	RejectedTooLarge  uint64
	ShedDeadline      uint64
	// VariantUpgrades counts admissions where the selected plan variant's
	// peak exceeded the model's minimal one — spare pool bytes traded for
	// estimated latency (always 0 for models registered without Pareto).
	VariantUpgrades uint64
	// LatencyBudgetMet and LatencyBudgetMissed account requests that
	// carried an on-device latency budget at admission: whether the
	// fastest fitting variant's estimated latency met it. Requests shed
	// before admission are counted in ShedDeadline, not here.
	LatencyBudgetMet    uint64
	LatencyBudgetMissed uint64
	// DegradedAdmissions counts admissions made while the home shard was
	// in degraded mode (smallest-peak variant instead of fastest);
	// DegradedEngaged how many times any shard entered the mode.
	DegradedAdmissions uint64
	DegradedEngaged    uint64
	// Requeued counts requests displaced by device churn and re-queued
	// onto a surviving device; DeviceLost those no device could absorb
	// (resolved with ErrDeviceLost); DeviceCrashes simulated crashes.
	Requeued      uint64
	DeviceLost    uint64
	DeviceCrashes uint64
	// ThroughputRPS is completed requests per second of uptime.
	ThroughputRPS float64
	// Latency percentiles are sojourn times (submit → done) of the
	// completions (successful or failed) in the trailing 10 s window of
	// vmcu_serve_latency_ms, merged across models; zero when none
	// completed in it. Scrape vmcu_serve_latency_ms for the bucketed
	// since-boot distribution.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	// QueueDepth sums the per-shard queue depths; QueueHighWater sums the
	// per-shard high-water marks (the marks need not be simultaneous);
	// QueueCap is the per-shard bound.
	QueueDepth     int
	QueueHighWater int
	QueueCap       int
	Shards         []ShardMetrics
	Devices        []DeviceMetrics
	// Cache reports the serving plan cache (hits, misses, evictions,
	// current length).
	Cache netplan.CacheStats
}

// Metrics returns a snapshot of the server's metric families and the
// fleet's pool state. Counters are read without locks and shards are
// locked one at a time, so sums may straddle in-flight transitions; at
// quiescence Submitted equals the sum of the terminal outcomes exactly.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	out := Metrics{Uptime: time.Since(s.started), QueueCap: s.queueCap}
	shards := append([]*shard(nil), s.shards...)
	s.mu.Unlock()

	// Each shard's share of the (model, shard)-labeled counters. Series
	// outside every shard (submit-time rejections) only count server-wide.
	type shardShare struct{ submitted, completed, shed, lost uint64 }
	shares := make(map[string]*shardShare, len(shards))
	for _, sh := range shards {
		shares[sh.key] = &shardShare{}
	}
	share := func(key string) *shardShare {
		if c := shares[key]; c != nil {
			return c
		}
		return &shardShare{}
	}
	s.ins.submitted.Each(func(v []string, n uint64) { // model, shard
		out.Submitted += n
		share(v[1]).submitted += n
	})
	s.ins.outcomes.Each(func(v []string, n uint64) { // model, shard, outcome
		c := share(v[1])
		switch v[2] {
		case outcomeDone:
			out.Completed += n
			c.completed += n
		case outcomeFailed:
			out.Failed += n
		case outcomeCanceled:
			out.Canceled += n
		case outcomeShedDeadline:
			out.ShedDeadline += n
			c.shed += n
		case outcomeDeviceLost:
			out.DeviceLost += n
			c.lost += n
		case outcomeQueueFull:
			out.RejectedQueueFull += n
		}
	})
	out.RejectedTooLarge = s.ins.tooLarge.Value()

	for _, sh := range shards {
		c := shares[sh.key]
		sm := ShardMetrics{
			Key:                sh.key,
			QueueHighWater:     int(sh.hQueueHighWater.Value()),
			DegradedAdmissions: sh.hDegradedAdmissions.Value(),
			DegradedEngaged:    sh.hDegradedEngaged.Value(),
			Submitted:          c.submitted,
			Completed:          c.completed,
			ShedDeadline:       c.shed,
			Requeued:           sh.hRequeued.Value(),
			DeviceLost:         c.lost,
			DeviceCrashes:      sh.hDeviceCrashes.Value(),
		}
		out.VariantUpgrades += sh.hVariantUpgrades.Value()
		out.LatencyBudgetMet += sh.hBudgetMet.Value()
		out.LatencyBudgetMissed += sh.hBudgetMissed.Value()
		out.DegradedAdmissions += sm.DegradedAdmissions
		out.DegradedEngaged += sm.DegradedEngaged
		out.Requeued += sm.Requeued
		out.DeviceCrashes += sm.DeviceCrashes
		out.QueueHighWater += sm.QueueHighWater

		sh.mu.Lock()
		sm.Devices = len(sh.devices)
		sm.QueueDepth = sh.q.count
		sm.Degraded = sh.degraded
		out.QueueDepth += sh.q.count
		for _, d := range sh.devices {
			cap, used, peak := d.ledger.Capacity(), d.ledger.Used(), d.ledger.PeakUsed()
			adm, ref := d.ledger.Counters()
			out.Devices = append(out.Devices, DeviceMetrics{
				Name:            d.name,
				Shard:           sh.key,
				CapacityBytes:   cap,
				UsedBytes:       used,
				PeakUsedBytes:   peak,
				Utilization:     float64(used) / float64(cap),
				PeakUtilization: float64(peak) / float64(cap),
				Residents:       d.ledger.Residents(),
				Active:          d.active,
				Admitted:        adm,
				Refused:         ref,
				Completed:       d.completed,
				Draining:        d.draining,
			})
		}
		sh.mu.Unlock()
		out.Shards = append(out.Shards, sm)
	}
	if sec := out.Uptime.Seconds(); sec > 0 {
		out.ThroughputRPS = float64(out.Completed) / sec
	}
	w := s.ins.latency.Window()
	out.LatencyP50, out.LatencyP95, out.LatencyP99 = msDuration(w.P50), msDuration(w.P95), msDuration(w.P99)
	out.Cache = s.cache.Stats()
	return out
}

// msDuration converts a latency observed in milliseconds back to the
// duration it was recorded from.
func msDuration(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}
