package mcu

import (
	"slices"
	"testing"
)

// refReadTaggedLog is ReadTagged's shadow check as first written: every
// byte classified on its own, in address order. ReadTagged skips the
// matching prefix in a tight loop; its log must equal this one.
func refReadTaggedLog(d *Device, addr, n int, id TensorID, elem0 int) []Violation {
	var log []Violation
	for i := 0; i < n; i++ {
		c := d.shadow[addr+i]
		want := int32(elem0 + i)
		switch {
		case c.owner == id && c.elem == want:
		case c.owner == FreeOwner:
			log = append(log, Violation{Kind: ReadFreed, Addr: addr + i, WantOwner: id, WantElem: want})
		case c.owner != id:
			log = append(log, Violation{Kind: ReadClobbered, Addr: addr + i,
				WantOwner: id, GotOwner: c.owner, WantElem: want, GotElem: c.elem})
		default:
			log = append(log, Violation{Kind: ReadWrongElem, Addr: addr + i,
				WantOwner: id, GotOwner: c.owner, WantElem: want, GotElem: c.elem})
		}
	}
	return log
}

// TestReadTaggedLogMatchesPerByteReference puts shadow mismatches of each
// kind at the first, a middle and the last byte of a tagged read, and a
// mixed run of all three, and requires ReadTagged's data, traffic and
// violation log to equal the per-byte reference's.
func TestReadTaggedLogMatchesPerByteReference(t *testing.T) {
	const addr, n, elem0 = 40, 48, 7
	type fault struct {
		at   int
		kind ViolationKind
	}
	cases := map[string][]fault{"clean": nil}
	for _, kind := range []ViolationKind{ReadClobbered, ReadFreed, ReadWrongElem} {
		for _, at := range []int{0, n / 2, n - 1} {
			name := kind.String() + " at " + map[int]string{0: "first", n / 2: "middle", n - 1: "last"}[at]
			cases[name] = []fault{{at, kind}}
		}
	}
	cases["mixed run"] = []fault{{0, ReadFreed}, {1, ReadClobbered}, {2, ReadWrongElem}, {17, ReadClobbered},
		{18, ReadClobbered}, {19, ReadFreed}, {30, ReadWrongElem}, {n - 2, ReadFreed}, {n - 1, ReadClobbered}}
	for name, faults := range cases {
		d := New(CortexM4(), 0)
		id, other := d.NewTensorID("in"), d.NewTensorID("other")
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(3*i + 1)
		}
		d.WriteTagged(addr, src, id, elem0)
		for _, f := range faults {
			switch f.kind {
			case ReadClobbered:
				d.WriteTagged(addr+f.at, []byte{0xEE}, other, f.at)
			case ReadFreed:
				d.FreeTagged(addr+f.at, 1, id)
			case ReadWrongElem:
				d.WriteTagged(addr+f.at, []byte{0xDD}, id, elem0+f.at+100)
			}
		}
		want := refReadTaggedLog(d, addr, n, id, elem0)
		if len(want) != len(faults) {
			t.Fatalf("%s: premise: reference logs %d violations for %d faults", name, len(want), len(faults))
		}
		before := d.Stats
		dst := make([]byte, n)
		d.ReadTagged(addr, dst, id, elem0)
		got, count := d.Violations()
		if count != len(want) || !slices.Equal(got, want) {
			t.Errorf("%s: ReadTagged logged %d %v, per-byte reference %v", name, count, got, want)
		}
		raw := make([]byte, n)
		d.ReadRaw(addr, raw)
		if !slices.Equal(dst, raw) {
			t.Errorf("%s: ReadTagged returned %v, RAM holds %v", name, dst, raw)
		}
		if diff := d.Stats.Sub(before); diff != (Stats{RAMReadBytes: n}) {
			t.Errorf("%s: ReadTagged charged %+v, want %d read bytes", name, diff, n)
		}
	}
}

// BenchmarkReadTagged reads one fused-kernel workspace pixel (80 bytes, an
// ImageNet B4 depthwise row) whose shadow state all matches, the verified
// path's common case.
func BenchmarkReadTagged(b *testing.B) {
	d := New(CortexM4(), 0)
	id := d.NewTensorID("ws")
	const addr, n = 1024, 80
	d.WriteTagged(addr, make([]byte, n), id, 0)
	dst := make([]byte, n)
	b.ReportAllocs()
	for b.Loop() {
		d.ReadTagged(addr, dst, id, 0)
	}
	if err := d.CheckFaults(); err != nil {
		b.Fatal(err)
	}
}
