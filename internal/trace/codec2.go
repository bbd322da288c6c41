package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"extrap/internal/vtime"
)

// XTRP2: a loop-compacted binary trace format.
//
// The measured traces of data-parallel programs are overwhelmingly
// repeated per-iteration subsequences — the same compute/communicate/
// barrier pattern, iteration after iteration, with timestamps and
// barrier ids advancing by constant strides. XTRP2 exploits that
// redundancy in two layers:
//
//  1. Delta rows. Each event is rewritten as a delta row: the kind byte
//     plus five zigzag varints — the time and thread deltas against the
//     previous event in the merged stream, and the three arg deltas
//     against the previous event OF THE SAME KIND. The per-kind arg
//     context turns "barrier id increments every iteration" and "same
//     remote-access pattern every iteration" into rows that are
//     byte-identical across iterations.
//  2. Loop detection. A rolling-hash pattern miner finds maximal runs
//     where a block of p delta rows repeats c times, hoists the block
//     into a pattern table, and replaces the run with repeat(id, c).
//
// Wire layout (integers little-endian, varints as encoding/binary):
//
//	magic     [5]byte  "XTRP2"
//	threads   uint32
//	ovh       int64    per-event instrumentation overhead (ns)
//	nphase    uint32
//	phases    nphase × (uint16 length, bytes)
//	nevents   uint64
//	npattern  uint32
//	patterns  npattern × (uvarint nrows, nrows × row)
//	program   ops until nevents rows have been produced:
//	            0x00 uvarint count, count × row   (literal run)
//	            0x01 uvarint id, uvarint count    (replay pattern id count times)
//	row       uint8 kind, 5 × zigzag-uvarint (dtime, dthread, darg0..2)
//
// The header through nevents is bit-identical to XTRP1's, so the two
// formats share one header parser and differ only past the event count.
//
// Decoding applies the same delta state machine in reverse, replaying
// pattern bodies from a pre-parsed row buffer — each replayed event
// costs a few integer adds instead of a varint re-parse. The transform
// is exactly invertible for every event stream the XTRP1 decoder
// accepts, so predictions computed from either encoding of the same
// trace are byte-identical.

var binary2Magic = [5]byte{'X', 'T', 'R', 'P', '2'}

// Hardening limits for the XTRP2 format, in the same spirit as the
// XTRP1 caps: no allocation is proportional to a declared count until
// the corresponding bytes have been read, and every cap bounds the
// memory amplification a hostile stream can achieve.
const (
	// MaxPatterns bounds the pattern-table entry count.
	MaxPatterns = 1 << 16
	// MaxPatternRows bounds the rows of a single pattern body. Real loop
	// periods can be large: a barrier loop's merged row period is
	// threads × per-thread rows, multiplied again when the scheduler
	// rotates thread order across iterations (16 threads × 17 rows × a
	// 16-round rotation ≈ 4.4k rows), so the cap leaves headroom above
	// that while still bounding a hostile stream's allocation.
	MaxPatternRows = 1 << 14
	// MaxPatternTableRows bounds the cumulative rows across all pattern
	// bodies. Rows are parsed incrementally from actual input bytes (≥ 6
	// bytes each on the wire), so reaching the cap requires a
	// proportionally large input; the cap bounds the decoded table at a
	// few tens of MiB regardless of what the header claims.
	MaxPatternTableRows = 1 << 20
)

// row is one pre-parsed delta row: the compiled form a pattern body is
// decoded into once and replayed from per iteration.
type row struct {
	kind                          Kind
	dTime, dThread, dA0, dA1, dA2 int64
}

// deltaState is the shared encoder/decoder state machine of the delta
// transform. Arg deltas are tracked per kind so structurally identical
// loop iterations produce identical rows.
type deltaState struct {
	prevTime   int64
	prevThread int64
	args       [kindCount][3]int64
}

// rowOf computes the delta row for e and advances the state.
func (s *deltaState) rowOf(e *Event) row {
	a := &s.args[e.Kind]
	r := row{
		kind:    e.Kind,
		dTime:   int64(e.Time) - s.prevTime,
		dThread: int64(e.Thread) - s.prevThread,
		dA0:     e.Arg0 - a[0],
		dA1:     e.Arg1 - a[1],
		dA2:     e.Arg2 - a[2],
	}
	s.prevTime = int64(e.Time)
	s.prevThread = int64(e.Thread)
	a[0], a[1], a[2] = e.Arg0, e.Arg1, e.Arg2
	return r
}

// apply reconstructs the event a row encodes and advances the state.
// The thread id is validated by the caller (it is delta-dependent, so
// it cannot be checked at parse time the way the kind byte is).
func (s *deltaState) apply(r *row) Event {
	a := &s.args[r.kind]
	e := Event{
		Time:   vtime.Time(s.prevTime + r.dTime),
		Kind:   r.kind,
		Thread: int32(s.prevThread + r.dThread),
		Arg0:   a[0] + r.dA0,
		Arg1:   a[1] + r.dA1,
		Arg2:   a[2] + r.dA2,
	}
	s.prevTime = int64(e.Time)
	s.prevThread = s.prevThread + r.dThread
	a[0], a[1], a[2] = e.Arg0, e.Arg1, e.Arg2
	return e
}

// zigzag maps signed deltas onto small unsigned varints.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Compression telemetry, accumulated across every XTRP2 encode and
// decode in the process (flushed once per decoder at stream end).
var (
	compEncodedTraces  atomic.Uint64
	compPatternEntries atomic.Uint64
	compReplayEvents   atomic.Uint64
	compLiteralEvents  atomic.Uint64
)

// CompressionCounters is a snapshot of process-wide XTRP2 codec
// telemetry: how much encoding has happened, how large the mined
// pattern tables were, and how decode work split between compiled
// pattern replay and literal row parsing.
type CompressionCounters struct {
	// EncodedTraces counts completed XTRP2 encodes.
	EncodedTraces uint64
	// PatternEntries counts pattern-table entries written by encoders.
	PatternEntries uint64
	// ReplayEvents counts events produced by compiled pattern replay.
	ReplayEvents uint64
	// LiteralEvents counts events decoded from literal runs.
	LiteralEvents uint64
}

// ReadCompressionCounters returns the current codec telemetry.
func ReadCompressionCounters() CompressionCounters {
	return CompressionCounters{
		EncodedTraces:  compEncodedTraces.Load(),
		PatternEntries: compPatternEntries.Load(),
		ReplayEvents:   compReplayEvents.Load(),
		LiteralEvents:  compLiteralEvents.Load(),
	}
}

// Format identifies a binary trace encoding.
type Format uint8

const (
	// FormatXTRP1 is the flat fixed-record format (37 bytes/event).
	FormatXTRP1 Format = 1
	// FormatXTRP2 is the loop-compacted delta format.
	FormatXTRP2 Format = 2
)

// String returns the canonical lower-case format name.
func (f Format) String() string {
	switch f {
	case FormatXTRP1:
		return "xtrp1"
	case FormatXTRP2:
		return "xtrp2"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// WriteBinaryFormat encodes the trace to w in the requested format.
func WriteBinaryFormat(w io.Writer, t *Trace, f Format) error {
	switch f {
	case FormatXTRP1:
		return WriteBinary(w, t)
	case FormatXTRP2:
		return WriteBinary2(w, t)
	}
	return fmt.Errorf("trace: unknown format %d", uint8(f))
}

// StreamDecoder is the reading side shared by the format decoders: the
// header, the (untrusted) declared event count, and a validated event
// cursor. Both *Decoder and *Decoder2 implement it.
type StreamDecoder interface {
	Header() Header
	Declared() uint64
	Reader
}

// NewAnyDecoder reads the magic from r and returns the matching format
// decoder, so consumers accept XTRP1 and XTRP2 streams transparently.
func NewAnyDecoder(r io.Reader) (StreamDecoder, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	switch magic {
	case binaryMagic:
		return newDecoderAfterMagic(br)
	case binary2Magic:
		return newDecoder2AfterMagic(br)
	}
	return nil, ErrBadMagic
}

// ReadBinaryAny decodes a whole trace of either binary format from r
// into memory, with the same allocation discipline as ReadBinary.
func ReadBinaryAny(r io.Reader) (*Trace, error) {
	d, err := NewAnyDecoder(r)
	if err != nil {
		return nil, err
	}
	hdr := d.Header()
	t := &Trace{
		NumThreads:    hdr.NumThreads,
		EventOverhead: hdr.EventOverhead,
		Phases:        hdr.Phases,
	}
	prealloc := d.Declared()
	if prealloc > readPrealloc {
		prealloc = readPrealloc
	}
	if d1, ok := d.(*Decoder); ok {
		t.Events, err = d1.appendAll(make([]Event, 0, prealloc))
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	evs := make([]Event, 0, prealloc)
	for {
		e, err := d.Next()
		if err == io.EOF {
			t.Events = evs
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		evs = append(evs, e)
	}
}

// readCommonHeader parses the header fields shared by XTRP1 and XTRP2
// (everything between the magic and the event records) with the XTRP1
// hardening rules.
func readCommonHeader(br *bufio.Reader) (Header, uint64, error) {
	var hdr Header
	var fixed [16]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return hdr, 0, err
	}
	nthreads := binary.LittleEndian.Uint32(fixed[:4])
	if nthreads > MaxThreads {
		return hdr, 0, fmt.Errorf("trace: implausible thread count %d (max %d)", nthreads, MaxThreads)
	}
	hdr.NumThreads = int(nthreads)
	hdr.EventOverhead = intToTime(binary.LittleEndian.Uint64(fixed[4:12]))
	nphase := binary.LittleEndian.Uint32(fixed[12:16])
	if nphase > MaxPhases {
		return hdr, 0, fmt.Errorf("trace: implausible phase count %d (max %d)", nphase, MaxPhases)
	}
	phaseBytes := 0
	for i := uint32(0); i < nphase; i++ {
		var ln [2]byte
		if _, err := io.ReadFull(br, ln[:]); err != nil {
			return hdr, 0, err
		}
		n := int(binary.LittleEndian.Uint16(ln[:]))
		if phaseBytes += n; phaseBytes > MaxPhaseBytes {
			return hdr, 0, fmt.Errorf("trace: phase table exceeds %d bytes", MaxPhaseBytes)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return hdr, 0, err
		}
		// Grown incrementally: each name's bytes were just read, so the
		// table can never outgrow the input actually supplied.
		hdr.Phases = append(hdr.Phases, string(buf))
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return hdr, 0, err
	}
	declare := binary.LittleEndian.Uint64(cnt[:])
	if declare > MaxEvents {
		return hdr, 0, fmt.Errorf("trace: implausible event count %d", declare)
	}
	return hdr, declare, nil
}

// Pattern mining parameters. minerWindow is the rolling-hash n-gram
// length; minRepeatSavings is the least number of rows a repeat op must
// eliminate to be worth a program op and (possibly) a table entry.
const (
	minerWindow      = 8
	minRepeatSavings = 8
)

// minerLadder is the descending savings bar of the multi-scale mining
// passes (see minePatterns): pass k commits only runs eliminating at
// least minerLadder[k] rows, and later passes re-mine the literal gaps.
var minerLadder = [...]int{1 << 14, 1 << 11, 1 << 8, 1 << 5, minRepeatSavings}

// program ops produced by the miner: either a literal half-open row
// range [start, end) or count replays of pattern id.
type progOp struct {
	literal    bool
	start, end int    // literal: row range
	id         uint32 // repeat: pattern-table index
	count      uint64 // repeat: total replays (≥ 2)
	// inert marks a literal op that is a whole scanned range in which no
	// run was accepted; best is then the largest savings any candidate
	// verified in it offered, so a rung whose bar exceeds best would
	// accept nothing there either.
	inert bool
	best  int
}

// minePatterns scans the delta rows for periodic runs and returns the
// pattern table plus the op program that reproduces rows exactly.
//
// Detection is a rolling hash over minerWindow-row n-grams: a window
// hash seen p positions ago suggests period p; the candidate block is
// then verified (and its repeat run counted) by direct row comparison,
// so hash collisions cost a failed verify, never a wrong encoding.
//
// Mining is multi-scale. A single greedy pass commits the first (and so
// shortest-period) run it can verify, and once rows are consumed no
// overlapping candidate is ever accepted — so a loop whose body contains
// a small internal repetition (eight threads entering the same barrier,
// say) would be shredded into per-iteration fragments and the loop
// itself, the run worth hundreds of times more, would never be found.
// The ladder fixes that scale by scale: the first pass skips (without
// consuming) any run saving fewer than minerLadder[0] rows, so only
// whole-loop periods can claim rows; each later pass re-mines the
// leftover literal gaps with a lower bar, down to the cheap
// minRepeatSavings floor that recovers exactly the small runs a single
// pass used to find. A run can still shadow a larger one within a rung's
// ~8× band, but never across bands. Long runs also matter beyond size:
// they are what the simulator's steady-state fast-forward can skip.
//
// Mining is near-linear in rows: no candidate is verified again once
// its outcome is known, and no row comparison is repeated for one whose
// outcome follows from a comparison already made. The three shortcuts
// are exact — the table and program are those of a miner that verifies
// every candidate from scratch:
//
//   - Per-period memo (in scan). Verifying period p from anchor a walks
//     back to the first start s with rows[k] == rows[k+p] on [s, a),
//     stopping at the pending literal start or a mismatch, then forward
//     to the first f ≥ a where rows[f] != rows[f+p] (or the range ends).
//     The run count is a function of s and f alone. A later anchor in
//     [s, f] for the same p therefore walks back to the same s, counts
//     the same run and is rejected the same way, as long as nothing was
//     accepted in between (an acceptance moves the literal start, and
//     the table is only ever grown by an acceptance). So the memo keeps
//     [s, f] per period — including the matched prefix of the block that
//     failed, which is where near-periodic runs spend their comparisons
//     — and skips such anchors without touching a row.
//   - Divisor seeding (in scan). The first-occurrence candidate of a
//     window often has a period p that is a multiple of the
//     nearest-occurrence period d (every window of a long period-d run
//     proposes one), and a new p each time, so the memo cannot catch
//     it. But rows[k] == rows[k+d] on a memoized [s, f) implies
//     rows[k] == rows[k+p] on [s, f-(p-d)), so when the anchor lies in
//     that stretch both walks start from its ends instead of the anchor;
//     the rows they then compare decide s and f exactly as before.
//   - Rung skip (here). A scan that accepts nothing sees the same
//     candidates in the same order at every bar — its inputs are the
//     rows of its range and nothing else — so if even the best of them
//     saved fewer rows than a lower rung's bar, that rung would accept
//     nothing too and passes the range through unscanned.
func minePatterns(rows []row) ([][]row, []progOp) {
	m := newMiner(len(rows))
	return m.mine(rows)
}

// newMiner returns a miner with an empty table, sized for n rows.
func newMiner(n int) *miner {
	return &miner{
		byHash: make(map[uint64][]uint32),
		seen:   make(map[uint64]occ),
		runs:   make([]periodRun, min(MaxPatternRows, n)+1),
	}
}

// mine runs the ladder over rows (see minePatterns).
func (m *miner) mine(rows []row) ([][]row, []progOp) {
	ops := []progOp{{literal: true, start: 0, end: len(rows)}}
	for _, minSavings := range minerLadder {
		var next []progOp
		for _, op := range ops {
			if !op.literal || op.end-op.start <= minSavings || op.inert && op.best < minSavings {
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

// miner carries the pattern table shared by every mining pass, plus
// the scan working state, which lives here so each scan reuses it.
type miner struct {
	patterns  [][]row
	tableRows int
	// byHash dedups pattern bodies (values are candidate ids to
	// compare against, so collisions stay correct).
	byHash map[uint64][]uint32

	// seen maps a window hash to its occurrences in the current scan.
	seen map[uint64]occ
	// runs is the per-period memo, indexed by period: the last run
	// verified for that period, valid while its epoch is current. The
	// epoch advances at every scan and every acceptance, which is what
	// invalidates all entries at once.
	runs  []periodRun
	epoch uint64
}

// occ records the indices just past the first and most recent
// occurrences of a window hash.
type occ struct{ first, last int }

// periodRun is a verified period-p stretch: rows[k] == rows[k+p] for
// every k in [start, end), start could not be walked back further, and
// no run starting there was accepted.
type periodRun struct {
	epoch      uint64
	start, end int
}

func (m *miner) intern(body []row) (uint32, bool) {
	h := hashRows(body)
	for _, id := range m.byHash[h] {
		if rowsEqual(m.patterns[id], body) {
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

// scan mines rows[lo:hi) for periodic runs saving at least minSavings
// rows each, returning ops (repeats and literal gaps) covering the range
// exactly. A scan that accepts nothing returns the whole range as one
// inert literal carrying the best savings it saw.
func (m *miner) scan(rows []row, lo, hi, minSavings int) []progOp {
	var ops []progOp
	flushLiteral := func(start, end int) {
		if start < end {
			ops = append(ops, progOp{literal: true, start: start, end: end})
		}
	}

	// seen holds, per window hash, the first and most recent occurrence.
	// The nearest occurrence proposes the shortest candidate period, but
	// inside a loop body that itself contains small repetitions every
	// window also matches at the small distance, and the loop period
	// would never be proposed at all — the first occurrence breaks that
	// masking: the first time a once-per-iteration window reoccurs, its
	// distance to the first occurrence is exactly one whole loop period.
	clear(m.seen)
	m.epoch++
	lit := lo // start of the pending literal run
	best := 0 // largest savings of any verified candidate
	var wh uint64
	wlen := 0 // rows currently in the rolling window
	const whBase = 0x100000001b3
	// whPow = whBase^(minerWindow-1), for removing the oldest row.
	whPow := uint64(1)
	for i := 1; i < minerWindow; i++ {
		whPow *= whBase
	}

	for i := lo; i < hi; i++ {
		rh := hashRow(&rows[i])
		if wlen == minerWindow {
			wh -= hashRow(&rows[i-minerWindow]) * whPow
		} else {
			wlen++
		}
		wh = wh*whBase + rh
		if wlen < minerWindow {
			continue
		}
		end := i + 1 // window covers rows[end-minerWindow : end]
		o, ok := m.seen[wh]
		if !ok {
			m.seen[wh] = occ{first: end, last: end}
			continue
		}
		m.seen[wh] = occ{first: o.first, last: end}
		for _, j := range [2]int{o.last, o.first} {
			if j >= end {
				continue
			}
			p := end - j
			if p > MaxPatternRows || end-p < lit {
				continue
			}
			// Candidate period p, anchored at end-p. A memo hit is a
			// candidate already verified and rejected (see minePatterns).
			anchor := end - p
			run := &m.runs[p]
			if run.epoch == m.epoch && run.start <= anchor && anchor <= run.end {
				if minerSelfCheck {
					checkPeriodRun(rows, lit, hi, anchor, p, run.start, run.end)
				}
				continue
			}
			// Rows a verified stretch of a dividing period already vouches
			// for need no comparison (see minePatterns).
			start, stop := anchor, anchor
			if d := end - o.last; d < p && p%d == 0 {
				if r := m.runs[d]; r.epoch == m.epoch && r.start <= anchor && anchor <= r.end-(p-d) {
					start, stop = r.start, r.end-(p-d)
				}
			}
			start, stop = extendPeriodRun(rows, lit, hi, p, start, stop)
			if minerSelfCheck {
				checkPeriodRun(rows, lit, hi, anchor, p, start, stop)
			}
			*run = periodRun{epoch: m.epoch, start: start, end: stop}
			count := uint64(1 + (stop-start)/p)
			savings := int(count-1) * p
			best = max(best, savings)
			if count < 2 || savings < minSavings {
				continue
			}
			id, ok := m.intern(rows[start : start+p])
			if !ok {
				// Table full: leave the run literal and keep scanning.
				continue
			}
			flushLiteral(lit, start)
			ops = append(ops, progOp{id: id, count: count})
			consumed := start + int(count)*p
			lit = consumed
			m.epoch++
			// Restart the window past the consumed run; stale map entries
			// are harmless (candidates are verified by comparison).
			if consumed > i+1 {
				i = consumed - 1
				wh, wlen = 0, 0
			}
			break
		}
	}
	if lit == lo {
		return []progOp{{literal: true, start: lo, end: hi, inert: true, best: best}}
	}
	flushLiteral(lit, hi)
	return ops
}

// extendPeriodRun extends [start, stop) while the period-p relation
// rows[k] == rows[k+p] holds: backward, so the first iteration of a
// loop is captured instead of left literal, but not below lit; forward
// to the first row that breaks it, but with no row past hi compared.
func extendPeriodRun(rows []row, lit, hi, p, start, stop int) (int, int) {
	for start > lit && rows[start-1] == rows[start-1+p] {
		start--
	}
	for stop+p < hi && rows[stop] == rows[stop+p] {
		stop++
	}
	return start, stop
}

// minerSelfCheck makes scan re-derive, by comparing rows from the
// anchor, every period stretch it took from the memo or seeded from a
// divisor, and panic if a shortcut got it wrong. Tests turn it on.
var minerSelfCheck bool

func checkPeriodRun(rows []row, lit, hi, anchor, p, start, stop int) {
	if s, e := extendPeriodRun(rows, lit, hi, p, anchor, anchor); s != start || e != stop {
		panic(fmt.Sprintf("trace: miner shortcut gave period %d run [%d,%d) at anchor %d, rows give [%d,%d)", p, start, stop, anchor, s, e))
	}
}

// hashRow mixes one row into a single word (FNV-style multiply/xor).
func hashRow(r *row) uint64 {
	h := uint64(r.kind) + 0x9e3779b97f4a7c15
	for _, v := range [...]int64{r.dTime, r.dThread, r.dA0, r.dA1, r.dA2} {
		h ^= uint64(v)
		h *= 0x100000001b3
		h ^= h >> 29
	}
	return h
}

func hashRows(rows []row) uint64 {
	h := uint64(len(rows)) + 0x9e3779b97f4a7c15
	for i := range rows {
		h = h*0x100000001b3 + hashRow(&rows[i])
	}
	return h
}

func rowsEqual(a, b []row) bool {
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

// WriteBinary2 encodes the trace to w in the XTRP2 format: the events
// are rewritten as delta rows, mined for repeated blocks, and emitted
// as a pattern table plus a program of literal runs and repeats.
func WriteBinary2(w io.Writer, t *Trace) error { return writeBinary2(w, t, minePatterns) }

// writeBinary2 is WriteBinary2 with the pattern miner as a parameter,
// so tests can encode with a reference miner and compare bytes.
func writeBinary2(w io.Writer, t *Trace, mine func([]row) ([][]row, []progOp)) error {
	hdr := t.Header()
	if hdr.NumThreads < 0 || hdr.NumThreads > MaxThreads {
		return fmt.Errorf("trace: thread count %d out of range [0,%d]", hdr.NumThreads, MaxThreads)
	}
	if len(hdr.Phases) > MaxPhases {
		return fmt.Errorf("trace: phase count %d exceeds %d", len(hdr.Phases), MaxPhases)
	}
	for i, e := range t.Events {
		if !e.Kind.Valid() {
			return fmt.Errorf("trace: event %d has invalid kind %d", i, byte(e.Kind))
		}
		if e.Thread < 0 || int(e.Thread) >= hdr.NumThreads {
			return fmt.Errorf("trace: event %d thread %d out of range [0,%d)", i, e.Thread, hdr.NumThreads)
		}
	}

	// Pass 1: delta transform + mining (the table must precede the
	// program on the wire, so ops are staged in memory).
	rows := make([]row, len(t.Events))
	var st deltaState
	for i := range t.Events {
		rows[i] = st.rowOf(&t.Events[i])
	}
	patterns, ops := mine(rows)

	// Pass 2: write.
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binary2Magic[:]); err != nil {
		return err
	}
	var scratch [16]byte
	binary.LittleEndian.PutUint32(scratch[:4], uint32(hdr.NumThreads))
	binary.LittleEndian.PutUint64(scratch[4:12], uint64(hdr.EventOverhead))
	binary.LittleEndian.PutUint32(scratch[12:16], uint32(len(hdr.Phases)))
	if _, err := bw.Write(scratch[:16]); err != nil {
		return err
	}
	phaseBytes := 0
	for _, p := range hdr.Phases {
		if len(p) > 0xffff {
			return fmt.Errorf("trace: phase name too long (%d bytes)", len(p))
		}
		if phaseBytes += len(p); phaseBytes > MaxPhaseBytes {
			return fmt.Errorf("trace: phase table exceeds %d bytes", MaxPhaseBytes)
		}
		binary.LittleEndian.PutUint16(scratch[:2], uint16(len(p)))
		if _, err := bw.Write(scratch[:2]); err != nil {
			return err
		}
		if _, err := bw.WriteString(p); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(scratch[:8], uint64(len(t.Events)))
	if _, err := bw.Write(scratch[:8]); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], uint32(len(patterns)))
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	var vb [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(vb[:], v)
		_, err := bw.Write(vb[:n])
		return err
	}
	putRow := func(r *row) error {
		if err := bw.WriteByte(byte(r.kind)); err != nil {
			return err
		}
		for _, v := range [...]int64{r.dTime, r.dThread, r.dA0, r.dA1, r.dA2} {
			if err := putUvarint(zigzag(v)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, body := range patterns {
		if err := putUvarint(uint64(len(body))); err != nil {
			return err
		}
		for i := range body {
			if err := putRow(&body[i]); err != nil {
				return err
			}
		}
	}
	for _, op := range ops {
		if op.literal {
			if err := bw.WriteByte(opLiteral); err != nil {
				return err
			}
			if err := putUvarint(uint64(op.end - op.start)); err != nil {
				return err
			}
			for i := op.start; i < op.end; i++ {
				if err := putRow(&rows[i]); err != nil {
					return err
				}
			}
		} else {
			if err := bw.WriteByte(opRepeat); err != nil {
				return err
			}
			if err := putUvarint(uint64(op.id)); err != nil {
				return err
			}
			if err := putUvarint(op.count); err != nil {
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	compEncodedTraces.Add(1)
	compPatternEntries.Add(uint64(len(patterns)))
	return nil
}

// Program opcodes.
const (
	opLiteral = 0x00
	opRepeat  = 0x01
)

// Decoder2 streams an XTRP2 trace: the header and pattern table are
// parsed once up front (bodies compiled into pre-parsed row buffers),
// then Next reconstructs events by applying delta rows — parsed from
// the input for literal runs, replayed from the compiled table for
// repeats. Peak memory is O(pattern table), bounded by the hardening
// caps and by the input bytes actually read, never by declared counts.
type Decoder2 struct {
	br       *bufio.Reader
	hdr      Header
	declare  uint64
	produced uint64
	patterns [][]row

	st deltaState

	// Current program op: a pending literal run, or a pattern body being
	// replayed (body non-nil: bodyPos indexes it, repLeft counts replays
	// still owed including the current one).
	litLeft uint64
	body    []row
	bodyPos int
	repLeft uint64

	replayed uint64
	literal  uint64
	flushed  bool
	err      error
}

func newDecoder2AfterMagic(br *bufio.Reader) (*Decoder2, error) {
	hdr, declare, err := readCommonHeader(br)
	if err != nil {
		return nil, err
	}
	d := &Decoder2{br: br, hdr: hdr, declare: declare}
	var cnt [4]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	npatterns := binary.LittleEndian.Uint32(cnt[:])
	if npatterns > MaxPatterns {
		return nil, fmt.Errorf("trace: implausible pattern count %d (max %d)", npatterns, MaxPatterns)
	}
	tableRows := uint64(0)
	for i := uint32(0); i < npatterns; i++ {
		nrows, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, patternErr(i, err)
		}
		if nrows == 0 {
			return nil, fmt.Errorf("trace: pattern %d is empty", i)
		}
		if nrows > MaxPatternRows {
			return nil, fmt.Errorf("trace: pattern %d declares %d rows (max %d)", i, nrows, MaxPatternRows)
		}
		if tableRows += nrows; tableRows > MaxPatternTableRows {
			return nil, fmt.Errorf("trace: pattern table exceeds %d rows", MaxPatternTableRows)
		}
		// Rows are parsed one at a time from bytes actually in the input;
		// the prealloc is capped so a forged nrows costs append regrowth,
		// not an up-front allocation.
		prealloc := nrows
		if prealloc > 256 {
			prealloc = 256
		}
		body := make([]row, 0, prealloc)
		for j := uint64(0); j < nrows; j++ {
			r, err := d.readRow()
			if err != nil {
				return nil, patternErr(i, err)
			}
			body = append(body, r)
		}
		d.patterns = append(d.patterns, body)
	}
	return d, nil
}

func patternErr(i uint32, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: pattern %d: %w", i, err)
}

// NewDecoder2 reads and validates an XTRP2 header (magic included) from
// r; events are consumed via Next.
func NewDecoder2(r io.Reader) (*Decoder2, error) {
	br := bufio.NewReader(r)
	var magic [5]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, err
	}
	if magic != binary2Magic {
		return nil, ErrBadMagic
	}
	return newDecoder2AfterMagic(br)
}

// Header returns the decoded trace metadata.
func (d *Decoder2) Header() Header { return d.hdr }

// Declared returns the event count the header claims; as with XTRP1 it
// is untrusted and never drives allocation.
func (d *Decoder2) Declared() uint64 { return d.declare }

// readRow parses one wire row, validating the kind byte.
func (d *Decoder2) readRow() (row, error) { return readWireRow(d.br) }

// readWireRow parses one wire row (kind byte + five zigzag uvarints),
// validating the kind byte. Shared by the streaming decoder and the
// eager compiler in pattern.go.
func readWireRow(br *bufio.Reader) (row, error) {
	kind, err := br.ReadByte()
	if err != nil {
		return row{}, err
	}
	if !Kind(kind).Valid() {
		return row{}, fmt.Errorf("invalid kind %d", kind)
	}
	r := row{kind: Kind(kind)}
	for _, p := range [...]*int64{&r.dTime, &r.dThread, &r.dA0, &r.dA1, &r.dA2} {
		u, err := binary.ReadUvarint(br)
		if err != nil {
			return row{}, err
		}
		*p = unzigzag(u)
	}
	return r, nil
}

// nextOp loads the next program op into the decoder state.
func (d *Decoder2) nextOp() error {
	opc, err := d.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: event %d: %w", d.produced, err)
	}
	switch opc {
	case opLiteral:
		n, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fmt.Errorf("trace: event %d: literal run: %w", d.produced, eofErr(err))
		}
		if n == 0 {
			return fmt.Errorf("trace: event %d: empty literal run", d.produced)
		}
		if n > d.declare-d.produced {
			return fmt.Errorf("trace: event %d: literal run of %d exceeds declared %d events", d.produced, n, d.declare)
		}
		d.litLeft = n
	case opRepeat:
		id, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fmt.Errorf("trace: event %d: repeat op: %w", d.produced, eofErr(err))
		}
		if id >= uint64(len(d.patterns)) {
			return fmt.Errorf("trace: event %d: repeat references pattern %d of %d", d.produced, id, len(d.patterns))
		}
		count, err := binary.ReadUvarint(d.br)
		if err != nil {
			return fmt.Errorf("trace: event %d: repeat op: %w", d.produced, eofErr(err))
		}
		body := d.patterns[id]
		if count == 0 {
			return fmt.Errorf("trace: event %d: repeat count 0", d.produced)
		}
		if count > MaxEvents || count*uint64(len(body)) > d.declare-d.produced {
			return fmt.Errorf("trace: event %d: repeat of %d×%d rows exceeds declared %d events", d.produced, count, len(body), d.declare)
		}
		d.body, d.bodyPos, d.repLeft = body, 0, count
	default:
		return fmt.Errorf("trace: event %d: unknown opcode %#x", d.produced, opc)
	}
	return nil
}

func eofErr(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next event, io.EOF after the declared count, or a
// validation error. The error is sticky.
func (d *Decoder2) Next() (Event, error) {
	if d.err != nil {
		return Event{}, d.err
	}
	var r row
	switch {
	case d.body != nil:
		r = d.body[d.bodyPos]
		if d.bodyPos++; d.bodyPos == len(d.body) {
			d.bodyPos = 0
			if d.repLeft--; d.repLeft == 0 {
				d.body = nil
			}
		}
		d.replayed++
	case d.litLeft > 0:
		var err error
		r, err = d.readRow()
		if err != nil {
			d.err = fmt.Errorf("trace: event %d: %w", d.produced, eofErr(err))
			return Event{}, d.err
		}
		d.litLeft--
		d.literal++
	default:
		if d.produced == d.declare {
			d.err = io.EOF
			d.flushCounters()
			return Event{}, d.err
		}
		if err := d.nextOp(); err != nil {
			d.err = err
			return Event{}, d.err
		}
		return d.Next()
	}
	e := d.st.apply(&r)
	if e.Thread < 0 || int(e.Thread) >= d.hdr.NumThreads {
		d.err = fmt.Errorf("trace: event %d thread %d out of range [0,%d)", d.produced, e.Thread, d.hdr.NumThreads)
		return Event{}, d.err
	}
	d.produced++
	return e, nil
}

// flushCounters publishes this stream's replay/literal split to the
// process-wide telemetry, exactly once per decoder.
func (d *Decoder2) flushCounters() {
	if d.flushed {
		return
	}
	d.flushed = true
	compReplayEvents.Add(d.replayed)
	compLiteralEvents.Add(d.literal)
}
