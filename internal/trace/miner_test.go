package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// Every encode in this package's tests re-derives the miner's
// shortcuts from the rows and panics on a wrong one, so a broken memo
// or seed fails here even when it happens not to change the output.
func init() { minerSelfCheck = true }

// rowsOf returns the delta rows the encoder mines for t.
func rowsOf(t *Trace) []row {
	rows := make([]row, len(t.Events))
	var st deltaState
	for i := range t.Events {
		rows[i] = st.rowOf(&t.Events[i])
	}
	return rows
}

// diffMined reports the first difference between two mining results.
func diffMined(wantP, gotP [][]row, wantOps, gotOps []progOp) error {
	if len(gotP) != len(wantP) {
		return fmt.Errorf("pattern table has %d entries, reference %d", len(gotP), len(wantP))
	}
	for i := range wantP {
		if !rowsEqual(gotP[i], wantP[i]) {
			return fmt.Errorf("pattern %d differs (%d rows, reference %d)", i, len(gotP[i]), len(wantP[i]))
		}
	}
	for i := 0; i < len(wantOps) || i < len(gotOps); i++ {
		if i >= len(gotOps) || i >= len(wantOps) {
			return fmt.Errorf("program has %d ops, reference %d", len(gotOps), len(wantOps))
		}
		w, g := wantOps[i], gotOps[i]
		if g.literal != w.literal || g.start != w.start || g.end != w.end || g.id != w.id || g.count != w.count {
			return fmt.Errorf("op %d is %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// tableSetup fills a miner's pattern table before mining: bodies are
// interned first, then the table is padded with empty entries up to
// entries and its row count raised to rows (zero: no padding).
type tableSetup struct {
	bodies        [][]row
	entries, rows int
}

// checkMined mines rows with both miners, each starting from the table
// setup describes (nil: empty), and reports the first difference.
func checkMined(rows []row, setup *tableSetup) error {
	ref := &refMiner{byHash: make(map[uint64][]uint32)}
	m := newMiner(len(rows))
	if setup != nil {
		for _, b := range setup.bodies {
			ref.intern(b)
			m.intern(b)
		}
		if n := setup.entries - len(m.patterns); n > 0 {
			ref.patterns = append(ref.patterns, make([][]row, n)...)
			m.patterns = append(m.patterns, make([][]row, n)...)
		}
		if setup.rows > 0 {
			ref.tableRows, m.tableRows = setup.rows, setup.rows
		}
	}
	wantP, wantOps := ref.mine(rows)
	gotP, gotOps := m.mine(rows)
	return diffMined(wantP, gotP, refToProg(wantOps), gotOps)
}

// checkMinerEquivalence compares the production miner against the
// frozen reference on t: the mined table and program, and the XTRP2
// bytes of the two encodings.
func checkMinerEquivalence(t *Trace) error {
	if err := checkMined(rowsOf(t), nil); err != nil {
		return err
	}
	var got, want bytes.Buffer
	if err := WriteBinary2(&got, t); err != nil {
		return err
	}
	if err := writeBinary2(&want, t, refMinePatternsAsProg); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		return fmt.Errorf("XTRP2 encoding is %d bytes, reference %d, contents differ", got.Len(), want.Len())
	}
	return nil
}

// synthRow is a small-alphabet row: distinct values of v are distinct
// rows, and a handful of values make accidental periodicity likely.
func synthRow(v int) row {
	return row{kind: Kind(1 + v%4), dTime: int64(v / 4), dThread: int64(v % 3)}
}

func synthBlock(p, salt int) []row {
	b := make([]row, p)
	for k := range b {
		b[k] = synthRow(salt*131 + k*7)
	}
	return b
}

func repeatRows(body []row, count int) []row {
	out := make([]row, 0, len(body)*count)
	for i := 0; i < count; i++ {
		out = append(out, body...)
	}
	return out
}

// unmixRow inverts the per-value mixing step of hashRow.
func unmixRow(h uint64) uint64 {
	h ^= h>>29 ^ h>>58
	// Multiplicative inverse of the odd FNV prime mod 2^64 by Newton.
	const prime = 0x100000001b3
	inv := uint64(prime)
	for i := 0; i < 6; i++ {
		inv *= 2 - prime*inv
	}
	return h * inv
}

// rowWithHash returns r with dA2 rewritten so hashRow(&r) == target.
func rowWithHash(r row, target uint64) row {
	r.dA2 = 0
	h := hashRow(&r) // the state before dA2 is mixed in, mixed with 0
	before := unmixRow(h)
	r.dA2 = int64(unmixRow(target) ^ before)
	return r
}

func windowHash(w []row) uint64 {
	var h uint64
	for i := range w {
		h = h*0x100000001b3 + hashRow(&w[i])
	}
	return h
}

// collidingWindow returns a copy of w (minerWindow rows) that differs
// from it in its last two rows but has the same rolling window hash.
func collidingWindow(w []row) []row {
	c := append([]row(nil), w...)
	n := len(c)
	c[n-2] = synthRow(999)
	d := hashRow(&c[n-2]) - hashRow(&w[n-2])
	c[n-1] = rowWithHash(w[n-1], hashRow(&w[n-1])-d*0x100000001b3)
	return c
}

func TestMinerMatchesReferenceOnSyntheticRows(t *testing.T) {
	w := synthBlock(minerWindow, 5)
	cw := collidingWindow(w)
	if windowHash(w) != windowHash(cw) || rowsEqual(w, cw) {
		t.Fatal("collidingWindow did not construct a window-hash collision")
	}
	// A shared lead-in before both windows, so the collision's candidate
	// also walks back and forward over matching rows before it fails.
	lead := synthBlock(40, 6)
	collision := append(append(append(append([]row(nil), lead...), w...), synthBlock(23, 7)...), lead...)
	collision = append(collision, cw...)
	collision = append(collision, repeatRows(synthBlock(12, 8), 5)...)

	// Near-periodic: 130 iterations of a 50-row body, one row changed in
	// iteration 120, so every candidate matches thousands of rows first.
	nearBody := synthBlock(50, 9)
	near := repeatRows(nearBody, 130)
	near[120*50+30] = synthRow(777)
	near = append(near, repeatRows(nearBody, 40)...)

	// Nested periods: an inner 4-row body eight times plus a separator,
	// the whole repeated; then a third level around that.
	inner := append(repeatRows(synthBlock(4, 10), 8), synthRow(500))
	outer := append(repeatRows(inner, 20), synthBlock(3, 11)...)
	nested := repeatRows(outer, 6)

	// Runs around every rung's bar, separated by literal noise: savings
	// (count-1)·p one row short of a bar (verified and rejected at that
	// rung, accepted at the next) or exactly at it.
	var ladder []row
	for i, run := range [][2]int{{31, 2}, {32, 2}, {17, 16}, {16, 17}, {23, 90}, {64, 33}, {2048, 9}} {
		ladder = append(ladder, synthBlock(11, 20+i)...)
		ladder = append(ladder, repeatRows(synthBlock(run[0], 30+i), run[1])...)
	}

	cases := map[string][]row{
		"collision": collision,
		"near":      near,
		"nested":    nested,
		"ladder":    ladder,
		"aperiodic": synthBlock(5000, 12),
	}
	for n := 0; n <= 2*minerWindow+1; n++ {
		cases[fmt.Sprintf("short%d", n)] = repeatRows(synthBlock(1, 13), n)
		cases[fmt.Sprintf("shortmixed%d", n)] = synthBlock(n, 14)
	}
	for name, rows := range cases {
		if err := checkMined(rows, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMinerMatchesReferenceWithFullTable starts both miners on a table
// at (or a few rows short of) each cap, so accepted candidates hit the
// table-full path and must stay literal identically.
func TestMinerMatchesReferenceWithFullTable(t *testing.T) {
	var rows []row
	for i := 0; i < 40; i++ {
		rows = append(rows, synthBlock(5, 40+i)...)
		rows = append(rows, repeatRows(synthBlock(4+i%5, 100+i), 3+i%4)...)
	}
	rows = append(rows, repeatRows(synthBlock(9, 200), 60)...)
	for _, headroom := range []int{0, 1, 3, 40} {
		if err := checkMined(rows, &tableSetup{rows: MaxPatternTableRows - 8*headroom}); err != nil {
			t.Errorf("table rows %d short of cap: %v", 8*headroom, err)
		}
		if err := checkMined(rows, &tableSetup{entries: MaxPatterns - headroom}); err != nil {
			t.Errorf("table %d entries short of cap: %v", headroom, err)
		}
	}

	// A full table that holds BB but not B. In B⁷ followed by B's first
	// 12 rows, period |B| is verified and rejected (B cannot be
	// interned), then the period-2|B| run of BB is accepted, leaving one
	// B plus 12 rows after it. The memoized period-|B| stretch still
	// covers that tail, but its start now lies before the pending
	// literal: an acceptance must retire the memo, and the self-check
	// panics if a later candidate in the tail is answered from it.
	b := synthBlock(20, 300)
	tail := append(repeatRows(b, 7), b[:12]...)
	rows = append(append(synthBlock(11, 301), tail...), synthBlock(11, 302)...)
	full := &tableSetup{bodies: [][]row{repeatRows(b, 2)}, entries: MaxPatterns}
	if err := checkMined(rows, full); err != nil {
		t.Errorf("memo across an acceptance: %v", err)
	}
}

func TestMinerMatchesReferenceOnTestTraces(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"loop":    makeLoopTrace(8, 200),
		"barrier": makeBarrierTrace(16, 40),
		"random":  makeRandomTrace(3000),
		"empty":   New(2),
	} {
		if err := checkMinerEquivalence(tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// fuzzRows builds a row stream from fuzz bytes: each op byte emits
// literal rows, a periodic run, a run with a late mismatch, or a nested
// run, with bodies drawn from a small alphabet so near-matches and
// accidental periods are common.
func fuzzRows(data []byte) []row {
	const maxRows = 1 << 12
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	body := func(p int) []row {
		b := make([]row, p)
		for k := range b {
			b[k] = synthRow(next() % 24)
		}
		return b
	}
	var rows []row
	emit := func(rs []row) {
		rows = append(rows, rs[:min(len(rs), maxRows-len(rows))]...)
	}
	for len(data) > 0 && len(rows) < maxRows {
		switch op := next(); op % 4 {
		case 0:
			emit(body(1 + next()%16))
		case 1:
			p := 1 + next()%48
			emit(repeatRows(body(p), 2+next()%64))
		case 2:
			p := 1 + next()%32
			run := repeatRows(body(p), 3+next()%96)
			run[len(run)-1-next()%p] = synthRow(30 + next()%8)
			emit(run)
			emit(run)
		case 3:
			in := append(repeatRows(body(1+next()%6), 2+next()%8), body(1)...)
			emit(repeatRows(in, 2+next()%24))
		}
	}
	return rows
}

func FuzzMinerEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{1, 7, 40, 1, 2, 3, 4, 5, 6, 7, 0, 5, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 20, 90, 5, 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6})
	f.Add([]byte{3, 3, 6, 1, 2, 3, 4, 20, 11, 1, 10, 30, 2, 2, 7, 3, 3, 2, 7, 0, 1})
	f.Add([]byte{0x81, 1, 5, 60, 1, 2, 3, 4, 5, 6, 1, 4, 30, 7, 7, 8, 9, 1, 3, 2, 4, 5, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A high first byte starts both miners a few rows short of the
		// table cap, so the table-full path is fuzzed too.
		var setup *tableSetup
		if len(data) > 0 && data[0] >= 0x80 {
			setup = &tableSetup{rows: MaxPatternTableRows - int(data[0]&0x7f)*4}
		}
		if err := checkMined(fuzzRows(data), setup); err != nil {
			t.Fatal(err)
		}
	})
}
