package kernels

import "slices"

// conv1Memo is the host's record of the B pixels one fused-kernel run has
// computed. It is a ring of rows B rows × w1 columns: entry (bh mod
// rows)·w1 + bw holds the Cin A bytes conv1 read for B pixel (bh, bw) and
// the Cmid B bytes it produced, tagged with bh. A B pixel is a pure
// function of its A bytes and the immutable Flash weights, so an entry
// whose tag and A bytes both match may stand in for the arithmetic. The
// memo is never visible to the simulated device.
type conv1Memo struct {
	rows, w1, cin, cmid int
	tags                []int  // B row each entry holds; -1 for none
	ents                []int8 // per entry: cin A bytes, then cmid B bytes
}

// reset empties the memo and sizes it for rows B rows of w1 pixels, cin
// A bytes to cmid B bytes, reusing its buffers when they are large
// enough. rows = R is always enough for a hit on every reuse: one
// depthwise window spans R consecutive B rows, and the next output row's
// window starts S2 ≤ R rows further down.
func (m *conv1Memo) reset(rows, w1, cin, cmid int) {
	m.rows, m.w1, m.cin, m.cmid = rows, w1, cin, cmid
	m.tags = resize(m.tags, rows*w1)
	m.ents = resize(m.ents, rows*w1*(cin+cmid))
	for i := range m.tags {
		m.tags[i] = -1
	}
}

// resize returns s with length n, reallocating only when its capacity is
// short. The contents are unspecified.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// entry returns the index and bytes of the entry for B pixel (bh, bw).
func (m *conv1Memo) entry(bh, bw int) (int, []int8) {
	i := (bh%m.rows)*m.w1 + bw
	n := m.cin + m.cmid
	return i, m.ents[i*n : (i+1)*n : (i+1)*n]
}

// lookup returns the B pixel recorded for (bh, bw) from exactly the A
// bytes a, or nil when there is none.
func (m *conv1Memo) lookup(bh, bw int, a []int8) []int8 {
	i, e := m.entry(bh, bw)
	if m.tags[i] != bh || !slices.Equal(e[:m.cin], a) {
		return nil
	}
	return e[m.cin:]
}

// store records that A bytes a gave B pixel b at (bh, bw), replacing the
// entry's previous occupant.
func (m *conv1Memo) store(bh, bw int, a, b []int8) {
	i, e := m.entry(bh, bw)
	copy(e, a)
	copy(e[m.cin:], b)
	m.tags[i] = bh
}
