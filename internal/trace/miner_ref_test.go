package trace

// A frozen copy of the XTRP2 pattern miner as it was before the
// shortcuts described at minePatterns: every candidate is verified from
// scratch on every rung. It is the reference the production miner must
// match op for op, so it stays as it is — identifiers carry a ref
// prefix, some comments are shortened, and the entry point is split
// into refMinePatterns/mine so a test can start it on a pre-filled
// table; no other line of code differs.

const (
	refMinerWindow      = 8
	refMinRepeatSavings = 8
)

var refMinerLadder = [...]int{1 << 14, 1 << 11, 1 << 8, 1 << 5, refMinRepeatSavings}

type refOp struct {
	literal    bool
	start, end int    // literal: row range
	id         uint32 // repeat: pattern-table index
	count      uint64 // repeat: total replays (≥ 2)
}

func refMinePatterns(rows []row) ([][]row, []refOp) {
	m := refMiner{byHash: make(map[uint64][]uint32)}
	return m.mine(rows)
}

func (m *refMiner) mine(rows []row) ([][]row, []refOp) {
	ops := []refOp{{literal: true, start: 0, end: len(rows)}}
	for _, minSavings := range refMinerLadder {
		var next []refOp
		for _, op := range ops {
			if !op.literal || op.end-op.start <= minSavings {
				next = append(next, op)
				continue
			}
			next = append(next, m.scan(rows, op.start, op.end, minSavings)...)
		}
		ops = next
	}
	// Drop the empty sentinel a zero-row trace leaves behind.
	out := ops[:0]
	for _, op := range ops {
		if op.literal && op.start == op.end {
			continue
		}
		out = append(out, op)
	}
	return m.patterns, out
}

type refMiner struct {
	patterns  [][]row
	tableRows int
	byHash    map[uint64][]uint32
}

func (m *refMiner) intern(body []row) (uint32, bool) {
	h := refHashRows(body)
	for _, id := range m.byHash[h] {
		if refRowsEqual(m.patterns[id], body) {
			return id, true
		}
	}
	if len(m.patterns) >= MaxPatterns || m.tableRows+len(body) > MaxPatternTableRows {
		return 0, false
	}
	id := uint32(len(m.patterns))
	m.patterns = append(m.patterns, body)
	m.tableRows += len(body)
	m.byHash[h] = append(m.byHash[h], id)
	return id, true
}

func (m *refMiner) scan(rows []row, lo, hi, minSavings int) []refOp {
	var ops []refOp
	flushLiteral := func(start, end int) {
		if start < end {
			ops = append(ops, refOp{literal: true, start: start, end: end})
		}
	}

	type occ struct{ first, last int }
	seen := make(map[uint64]occ, (hi-lo)/4+1)
	lit := lo // start of the pending literal run
	var wh uint64
	wlen := 0 // rows currently in the rolling window
	const whBase = 0x100000001b3
	whPow := uint64(1)
	for i := 1; i < refMinerWindow; i++ {
		whPow *= whBase
	}

	for i := lo; i < hi; i++ {
		rh := refHashRow(&rows[i])
		if wlen == refMinerWindow {
			wh -= refHashRow(&rows[i-refMinerWindow]) * whPow
		} else {
			wlen++
		}
		wh = wh*whBase + rh
		if wlen < refMinerWindow {
			continue
		}
		end := i + 1 // window covers rows[end-minerWindow : end]
		o, ok := seen[wh]
		if !ok {
			seen[wh] = occ{first: end, last: end}
			continue
		}
		seen[wh] = occ{first: o.first, last: end}
		for _, j := range [2]int{o.last, o.first} {
			if j >= end {
				continue
			}
			p := end - j
			if p > MaxPatternRows || end-p < lit {
				continue
			}
			start := end - p
			for start > lit && rows[start-1] == rows[start-1+p] {
				start--
			}
			body := rows[start : start+p]
			count := uint64(1)
			for next := start + int(count)*p; next+p <= hi && refRowsEqual(rows[next:next+p], body); next += p {
				count++
			}
			if count < 2 || int(count-1)*p < minSavings {
				continue
			}
			id, ok := m.intern(body)
			if !ok {
				// Table full: leave the run literal and keep scanning.
				continue
			}
			flushLiteral(lit, start)
			ops = append(ops, refOp{id: id, count: count})
			consumed := start + int(count)*p
			lit = consumed
			if consumed > i+1 {
				i = consumed - 1
				wh, wlen = 0, 0
			}
			break
		}
	}
	flushLiteral(lit, hi)
	return ops
}

func refHashRow(r *row) uint64 {
	h := uint64(r.kind) + 0x9e3779b97f4a7c15
	for _, v := range [...]int64{r.dTime, r.dThread, r.dA0, r.dA1, r.dA2} {
		h ^= uint64(v)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func refHashRows(rows []row) uint64 {
	h := uint64(len(rows)) + 0x9e3779b97f4a7c15
	for i := range rows {
		h = h*0x100000001b3 + refHashRow(&rows[i])
	}
	return h
}

func refRowsEqual(a, b []row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refMinePatternsAsProg adapts the reference to the encoder's miner
// signature, for byte-level comparison through writeBinary2.
func refMinePatternsAsProg(rows []row) ([][]row, []progOp) {
	patterns, ops := refMinePatterns(rows)
	return patterns, refToProg(ops)
}

func refToProg(ops []refOp) []progOp {
	out := make([]progOp, len(ops))
	for i, op := range ops {
		out[i] = progOp{literal: op.literal, start: op.start, end: op.end, id: op.id, count: op.count}
	}
	return out
}
