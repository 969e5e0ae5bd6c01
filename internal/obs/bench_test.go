package obs

import "testing"

// The no-op path is the one every instrumented hot path pays when tracing
// is off; it must stay at "a nil check and a call" so threading the
// tracer through serve/netplan permanently is free. The enabled path is
// the opt-in cost. The serving benchmark's admit-flood vs admit-flood-ops
// workloads measure the end-to-end tracing tax; these pin the
// per-operation costs.

func BenchmarkSpanNoop(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("op", KindStage)
		s.Attr(Int("n", int64(i)))
		s.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New(Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start("op", KindStage)
		s.Attr(Int("n", int64(i)))
		s.End()
	}
}

func BenchmarkCounterNoop(b *testing.B) {
	var r *Registry
	c := r.CounterVec("n", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().CounterVec("n", "").With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewRegistry().HistogramVec("lat", "", []float64{1, 2, 5, 10, 20, 50, 100}, WindowOptions{}).With()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 128))
	}
}

// BenchmarkVecWithHit is the per-event cost of resolving an existing
// 3-key labelset, the path serve's terminal outcome counters take.
func BenchmarkVecWithHit(b *testing.B) {
	cv := NewRegistry().CounterVec("outcomes", "", "model", "shard", "outcome")
	cv.With("vww", "m4-256k", "done")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv.With("vww", "m4-256k", "done").Inc()
	}
}
