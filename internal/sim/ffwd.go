package sim

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"extrap/internal/sim/network"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// Steady-state fast-forward: when a compiled trace is replaying a
// pattern body over and over and the whole pipeline's state at one
// iteration boundary is a pure per-timescale time-shift of its state a
// fixed number of iterations earlier, the engine's dynamics are
// invariant under that shift — every comparison it makes is within one
// timescale, and cross-scale interactions go through differences only.
// Two matching snapshots therefore prove the next chunk of iterations
// will replay the same trajectory shifted again, and induction extends
// that to all remaining whole chunks: the kernel applies j× the learned
// deltas in O(state) instead of O(j · events) and resumes event-by-event
// replay for the tail. Any snapshot disagreement — structural change,
// non-uniform stride — means the loop is not (yet) steady and replay
// simply continues event by event, so predictions are byte-identical to
// ReplayEvent by construction.
//
// Taking and comparing snapshots costs O(state) per probe, so it is
// paid only where a skip can succeed. Before any snapshot, observe
// asks the cursor whether the active repeat body is shiftable: the
// decoder's thread register and every arg context except the
// barrier-id arg0 are FPExact slots, and between two snapshots of one
// op at the same body position each of them has moved by m × its
// per-iteration body sum. A body whose thread or exact-class arg sum is
// non-zero — every loop that walks across threads, or whose transfer
// size drifts — therefore fails DiffFingerprints at every spacing m,
// and skipping its snapshots loses no fast-forward (see
// trace.PatternSource.Shiftable). The check sits after the per-op
// bookkeeping, so shiftable ops see exactly the snapshots they would
// without it, and fast-forward counts and skipped iterations are
// unchanged.
//
// The fingerprint/shift traversals here mirror each other slot for
// slot, as do their counterparts in internal/translate and the decoder
// cursor in internal/trace. Every engine field is accounted for: either
// fingerprinted, provably dead (stale values guarded by state tags,
// pushed as zero sentinels and left unshifted), or deliberately
// excluded with a normalization argument (seq/gen are compared only
// against each other, so pending entries are fingerprinted relative to
// their moving counters and neither counter is shifted on skip —
// relative order and equality are preserved, and absolute values are
// never output).

// ffBarWindow matches translate's: barrier records below the last two
// ids are provably never read again (exiting barrier b requires all
// threads entered b, so entering b+1 pins every thread at id ≥ b), so
// only a short tail window is fingerprinted and relocated on skip.
const ffBarWindow = 4

const (
	// ffMinRepLeft is the minimum iterations still owed before
	// fast-forward is worth attempting: below it, two snapshots plus a
	// replayed tail leave almost nothing to skip.
	ffMinRepLeft = 4
	// ffMaxPeriod is the largest steady-state period (in pattern
	// iterations) probed from one base snapshot. Engine state is often
	// periodic with a small multiple of the trace period — rotating
	// communication partners permute heap layouts and slab labels with
	// the rotation's order — so the base is held and the comparison
	// spacing grows 1, 2, …, ffMaxPeriod before the base is rolled
	// forward (a mismatch at spacing m also escapes start-up transients
	// once the base moves).
	ffMaxPeriod = 8
	// ffMaxFails abandons an op instance after this many total
	// fingerprint mismatches — roughly two full period sweeps — when the
	// loop body is genuinely state-mutating, not steady, and
	// re-fingerprinting every boundary would be pure overhead.
	ffMaxFails = 18
	// ffSnapSpacing spaces snapshots at least this many body rows apart
	// so tiny bodies don't fingerprint every handful of events.
	ffSnapSpacing = 64
	// ffMaxSkipSteps caps the extrapolated step count of one skip just
	// above the engine's event budget: any skip reaching it means
	// event-by-event replay would have exhausted the budget anyway, and
	// the clamp keeps the arithmetic far from overflow.
	ffMaxSkipSteps = 1 << 30
)

// ffGateOff disables the shiftable-body check in observe, so tests can
// show that the check never costs a fast-forward.
var ffGateOff bool

// SetSkipGate turns fast-forward's shiftable-body check on or off and
// returns the previous setting. It is a test hook for packages that
// replay real traces (core's fuzz target, the root replay tests): they
// run each replay with the check on and off and require identical
// predictions and fast-forward counters. Production code never calls
// it, and it must not be called while a simulation runs.
func SetSkipGate(on bool) (was bool) {
	was = !ffGateOff
	ffGateOff = !on
	return was
}

// Fast-forward telemetry, process-wide (mirrors the codec's compression
// counters; surfaced on /debug/vars by the serving layer).
var (
	ffAttempts     atomic.Uint64
	ffFastForwards atomic.Uint64
	ffItersSkipped atomic.Uint64
	ffFallbacks    atomic.Uint64
)

// ReplayCounters is a snapshot of the fast-forward telemetry.
type ReplayCounters struct {
	// Attempts counts fingerprint comparisons.
	Attempts uint64
	// FastForwards counts successful O(1) skips.
	FastForwards uint64
	// IterationsSkipped totals the pattern iterations advanced by skips.
	IterationsSkipped uint64
	// Fallbacks counts fingerprint mismatches that forced event-by-event
	// replay to continue.
	Fallbacks uint64
}

// ReadReplayCounters returns the process-wide fast-forward telemetry.
func ReadReplayCounters() ReplayCounters {
	return ReplayCounters{
		Attempts:          ffAttempts.Load(),
		FastForwards:      ffFastForwards.Load(),
		IterationsSkipped: ffItersSkipped.Load(),
		Fallbacks:         ffFallbacks.Load(),
	}
}

// ffState orchestrates fast-forward for one streaming simulation.
type ffState struct {
	src *translate.Stream
	cur *trace.PatternSource

	fpA, fpB trace.ReplayFingerprint
	deltas   trace.ReplayDeltas

	lastIters uint64 // iteration count at the last observation
	haveSnap  bool
	snapIters uint64 // iteration count at fpA
	snapSteps int    // engine steps at fpA
	snapOp    int    // repeat-op instance fpA belongs to
	fails     int
	abandoned bool
}

// newFFState engages fast-forward when the source pipeline exposes its
// compiled pattern cursor; it returns nil otherwise.
func newFFState(cfg *Config, src Source) *ffState {
	if src == nil || cfg.Replay != ReplayPattern || cfg.EmitTrace {
		return nil
	}
	ts, ok := src.(*translate.Stream)
	if !ok {
		return nil
	}
	cur := ts.PatternSource()
	if cur == nil {
		return nil
	}
	return &ffState{src: ts, cur: cur, snapOp: -1}
}

// observe runs at the top of the engine event loop. When the decoder
// has crossed one or more pattern-iteration boundaries since the last
// call, it snapshots the pipeline and — once two snapshots match as a
// pure time-shift — skips all but the tail of the remaining iterations,
// returning the extrapolated step count so the budget check and the
// cancellation poll cadence stay byte-aligned with event replay. The
// context is additionally polled right after every skip, keeping
// worst-case cancellation latency at the regular poll bound even when
// skips dwarf the event count between polls.
func (ff *ffState) observe(ctx context.Context, e *engine, steps int) (int, error) {
	it := ff.cur.IterationsCompleted()
	if it == ff.lastIters {
		return steps, nil
	}
	ff.lastIters = it
	opIdx, bodyLen, repLeft, ok := ff.cur.RepeatState()
	if !ok {
		ff.haveSnap = false
		return steps, nil
	}
	if opIdx != ff.snapOp {
		ff.snapOp = opIdx
		ff.haveSnap = false
		ff.fails = 0
		ff.abandoned = false
	}
	if !ffGateOff && !ff.cur.Shiftable() {
		return steps, nil
	}
	if ff.abandoned || repLeft < ffMinRepLeft {
		return steps, nil
	}
	stride := uint64(1)
	if bodyLen < ffSnapSpacing {
		stride = uint64((ffSnapSpacing + bodyLen - 1) / bodyLen)
	}
	if !ff.haveSnap {
		ff.fpA.Reset()
		if ff.appendAll(e, &ff.fpA) {
			ff.haveSnap = true
			ff.snapIters = it
			ff.snapSteps = steps
		}
		return steps, nil
	}
	m := it - ff.snapIters
	if m < stride {
		return steps, nil
	}
	ff.fpB.Reset()
	if !ff.appendAll(e, &ff.fpB) {
		ff.haveSnap = false
		return steps, nil
	}
	ffAttempts.Add(1)
	if !trace.DiffFingerprints(&ff.fpA, &ff.fpB, &ff.deltas) {
		ffFallbacks.Add(1)
		if ff.fails++; ff.fails >= ffMaxFails {
			ff.abandoned = true
			ff.haveSnap = false
			return steps, nil
		}
		if m >= ffMaxPeriod {
			ff.rollSnapshot(it, steps)
		}
		return steps, nil
	}
	ff.fails = 0

	// How many whole m-iteration chunks can be skipped: at least one
	// iteration of the repeat must remain (SkipIterations' contract, and
	// the tail is replayed event by event through the op exit), every
	// fingerprinted time slot must stay far from overflow, and the
	// extrapolated step count must stay within clamping range.
	dSteps := steps - ff.snapSteps
	if dSteps < 1 {
		dSteps = 1
	}
	j := (repLeft - 1) / m
	if max := trace.MaxShiftChunks(&ff.fpB, &ff.deltas); j > max {
		j = max
	}
	if max := uint64(ffMaxSkipSteps / dSteps); j > max {
		j = max
	}
	if j < 1 {
		ff.rollSnapshot(it, steps)
		return steps, nil
	}
	k := j * m
	if err := ff.cur.SkipIterations(k); err != nil {
		// Unreachable given the bounds above; degrade to event replay.
		ffFallbacks.Add(1)
		ff.abandoned = true
		ff.haveSnap = false
		return steps, nil
	}
	ff.deltas.ResetAccum()
	ff.src.ApplyReplayShift(int64(j), &ff.deltas)
	e.applyReplayShift(int64(j), &ff.deltas)
	steps += int(j) * dSteps
	ffFastForwards.Add(1)
	ffItersSkipped.Add(k)
	ff.haveSnap = false
	ff.lastIters = ff.cur.IterationsCompleted()
	if err := ctx.Err(); err != nil {
		return steps, fmt.Errorf("sim: aborted after %d events: %w", steps, err)
	}
	return steps, nil
}

// rollSnapshot makes the just-taken fpB the new base snapshot.
func (ff *ffState) rollSnapshot(it uint64, steps int) {
	ff.fpA, ff.fpB = ff.fpB, ff.fpA
	ff.snapIters = it
	ff.snapSteps = steps
}

// appendAll fingerprints the whole pipeline, decoder → translate →
// engine, in the fixed traversal order the shift application mirrors.
func (ff *ffState) appendAll(e *engine, fp *trace.ReplayFingerprint) bool {
	ff.cur.AppendFingerprint(fp)
	if !ff.src.AppendReplayFingerprint(fp) {
		return false
	}
	return e.appendReplayFingerprint(fp)
}

// --- engine fingerprint -----------------------------------------------------

// appendReplayFingerprint appends the engine's live state to fp,
// reporting false when the engine is in a state fast-forward must not
// touch (sticky source error, or trace emission enabled).
//
// Two normalizations make the fingerprint insensitive to semantically
// inert state. First, the future event list is fingerprinted in
// canonical (at, seq) order, not physical heap-array order: pops
// compare only (at, seq), so the array layout — which depends on the
// whole operation history and can permute forever under rotating
// communication patterns — never influences behavior. Second, message
// slab indices are opaque handles (used only for slab addressing and
// noMsg checks, never compared or output), so they are renamed to
// canonical first-encounter order along that same walk, and the slab
// free list — which only decides what name the next allocation gets —
// is fingerprinted by length alone. Steady states that differ only by
// heap layout or slab naming are behaviorally identical, and the shift
// application is order- and name-independent, so skipping from such a
// state is exact.
func (e *engine) appendReplayFingerprint(fp *trace.ReplayFingerprint) bool {
	if e.fail != nil || e.out != nil {
		return false
	}
	now := e.now

	// Canonical FEL order and msg-handle renaming, computed up front so
	// every section (service queues included) uses the same naming.
	order := make([]int32, len(e.fel.q))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &e.fel.q[order[i]], &e.fel.q[order[j]]
		if a.at != b.at {
			return a.at < b.at
		}
		return a.seq < b.seq
	})
	rename := make(map[int32]int64)
	var encounter []int32
	visit := func(mi int32) {
		if mi == noMsg {
			return
		}
		if _, ok := rename[mi]; !ok {
			rename[mi] = int64(len(encounter))
			encounter = append(encounter, mi)
		}
	}
	for _, qi := range order {
		visit(e.fel.q[qi].msg)
	}
	if e.fel.topOK {
		visit(e.fel.top.msg)
	}
	if e.contOK {
		visit(e.cont.msg)
	}
	for i := range e.procs {
		for _, mi := range e.procs[i].svcQueue {
			visit(mi)
		}
	}
	rid := func(mi int32) int64 {
		if mi == noMsg {
			return -1
		}
		return rename[mi]
	}
	fp.Push(trace.FPSim, int64(now))
	fp.Push(trace.FPExact, int64(e.done))
	fp.Push(trace.FPAccum, int64(e.nbars))
	for i := range e.threads {
		t := &e.threads[i]
		fp.Push(trace.FPExact, int64(t.state))
		fp.PushBool(t.curOK)
		if t.curOK {
			fp.Push(trace.FPTrans, int64(t.cur.Time))
			fp.Push(trace.FPExact, int64(t.cur.Kind))
			fp.Push(trace.FPExact, int64(t.cur.Thread))
			if t.cur.Kind == trace.KindBarrierEntry || t.cur.Kind == trace.KindBarrierExit {
				fp.Push(trace.FPBarID, t.cur.Arg0)
			} else {
				fp.Push(trace.FPExact, t.cur.Arg0)
			}
			fp.Push(trace.FPExact, t.cur.Arg1)
			fp.Push(trace.FPExact, t.cur.Arg2)
		} else {
			for s := 0; s < 6; s++ {
				fp.Push(trace.FPExact, 0)
			}
		}
		fp.Push(trace.FPTrans, int64(t.prevT))
		// Stale-by-state fields are pushed as zero sentinels and never
		// shifted: their values are only read while the tagging state
		// holds, so dead content is behaviorally irrelevant — but the
		// state tag itself is exact, so liveness can't flip unnoticed.
		if t.state == tsComputing {
			fp.Push(trace.FPSim, int64(t.segEnd))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		fp.Push(trace.FPExact, int64(t.pureLeft)) // duration: shift-invariant
		if t.state == tsWaitReply || t.state == tsWaitBarrier {
			fp.Push(trace.FPSim, int64(t.blockAt))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		if t.state == tsWaitCPU {
			fp.Push(trace.FPSim, int64(t.readyAt))
		} else {
			fp.Push(trace.FPExact, 0)
		}
		st := &t.stats
		fp.Push(trace.FPAccum, int64(st.Compute))
		fp.Push(trace.FPAccum, int64(st.CommWait))
		fp.Push(trace.FPAccum, int64(st.BarrierWait))
		fp.Push(trace.FPAccum, int64(st.Service))
		fp.Push(trace.FPAccum, int64(st.CPUWait))
		fp.Push(trace.FPAccum, st.RemoteReads)
		fp.Push(trace.FPAccum, st.RemoteWrites)
		fp.Push(trace.FPAccum, st.Barriers)
		fp.Push(trace.FPAccum, int64(st.Finish))
	}
	for i := range e.procs {
		p := &e.procs[i]
		fp.Push(trace.FPExact, int64(p.current))
		fp.Push(trace.FPExact, int64(p.last))
		fp.Push(trace.FPExact, int64(len(p.runq)))
		for _, id := range p.runq {
			fp.Push(trace.FPExact, int64(id))
		}
		fp.Push(trace.FPExact, int64(len(p.svcQueue)))
		for _, mi := range p.svcQueue {
			fp.Push(trace.FPExact, rid(mi))
		}
		if p.svcBusyUntil > now {
			fp.Push(trace.FPSim, int64(p.svcBusyUntil))
		} else {
			fp.Push(trace.FPExact, 0)
		}
	}
	fp.Push(trace.FPExact, int64(len(e.fel.q)))
	for _, qi := range order {
		e.pushFelEvent(fp, &e.fel.q[qi], rid)
	}
	fp.PushBool(e.fel.topOK)
	if e.fel.topOK {
		e.pushFelEvent(fp, &e.fel.top, rid)
	} else {
		for s := 0; s < 6; s++ {
			fp.Push(trace.FPExact, 0)
		}
	}
	fp.PushBool(e.contOK)
	if e.contOK {
		e.pushFelEvent(fp, &e.cont, rid)
	} else {
		for s := 0; s < 6; s++ {
			fp.Push(trace.FPExact, 0)
		}
	}
	nb := len(e.bars)
	fp.Push(trace.FPBarID, int64(nb))
	lo := nb - ffBarWindow
	if lo < 0 {
		lo = 0
	}
	for id := lo; id < nb; id++ {
		pushBarSt(fp, &e.bars[id])
	}
	fp.Push(trace.FPExact, int64(e.msgs.used))
	fp.Push(trace.FPExact, int64(len(e.msgs.free)))
	for _, mi := range encounter {
		m := e.msgs.at(mi)
		fp.Push(trace.FPExact, int64(m.kind))
		fp.Push(trace.FPExact, int64(m.src))
		fp.Push(trace.FPExact, int64(m.dst))
		fp.Push(trace.FPExact, m.bytes)
		if m.kind == mBarArrive || m.kind == mBarRelease {
			fp.Push(trace.FPBarID, m.barrier)
		} else {
			fp.Push(trace.FPExact, m.barrier)
		}
		fp.PushBool(m.delivered)
	}
	pushNet(fp, e.inter, now)
	fp.PushBool(e.intra != nil)
	if e.intra != nil {
		pushNet(fp, e.intra, now)
	}
	return true
}

// pushFelEvent appends one scheduled event. seq and gen are compared
// only against their own counters, so they are fingerprinted relative
// to them (and the counters themselves are neither fingerprinted nor
// shifted): a skip leaves relative order and gen-validity untouched,
// which is all the engine ever reads. The msg handle is pushed under
// its canonical rename (see appendReplayFingerprint).
func (e *engine) pushFelEvent(fp *trace.ReplayFingerprint, ev *event, rid func(int32) int64) {
	fp.Push(trace.FPSim, int64(ev.at))
	fp.Push(trace.FPExact, int64(ev.seq)-int64(e.fel.nextSq))
	if ev.kind == evMsgArrive {
		fp.Push(trace.FPExact, 0) // message events carry no generation
	} else {
		fp.Push(trace.FPExact, int64(ev.gen)-int64(e.threads[ev.thread].gen))
	}
	fp.Push(trace.FPExact, int64(ev.thread))
	fp.Push(trace.FPExact, rid(ev.msg))
	fp.Push(trace.FPExact, int64(ev.kind))
}

// pushBarSt appends one barrier record of the tail window. Time fields
// are on the FPBarS stride: in a steady barrier loop the window slides
// (slot w names barrier id+Δ next time, values advance with the clock),
// in a barrier-free loop it freezes (stride 0) — both are uniform.
func pushBarSt(fp *trace.ReplayFingerprint, b *barSt) {
	fp.PushBool(b.used)
	if b.used {
		fp.Push(trace.FPBarID, b.id)
	} else {
		fp.Push(trace.FPExact, 0)
	}
	fp.Push(trace.FPExact, int64(b.entries))
	pushBarTime(fp, b.maxArrive)
	fp.PushBool(b.masterEntered)
	pushBarTime(fp, b.masterFreeAt)
	fp.Push(trace.FPExact, int64(b.arrivedMsgs))
	pushBarTime(fp, b.lastArrProc)
	fp.PushBool(b.released)
	fp.PushBool(b.childGot != nil)
	for i := range b.childGot {
		fp.Push(trace.FPExact, int64(b.childGot[i]))
		fp.PushBool(b.nodeEntered[i])
		pushBarTime(fp, b.nodeFreeAt[i])
		fp.PushBool(b.releaseSent[i])
	}
}

func pushBarTime(fp *trace.ReplayFingerprint, v vtime.Time) {
	if v == 0 {
		fp.Push(trace.FPExact, 0)
	} else {
		fp.Push(trace.FPBarS, int64(v))
	}
}

// pushNet appends one network's state: the in-flight population and any
// still-busy NI queue fronts are live; drained queue fronts (≤ now) are
// dead sentinels; the traffic totals are write-only accumulators.
func pushNet(fp *trace.ReplayFingerprint, n *network.Network, now vtime.Time) {
	fp.Push(trace.FPExact, int64(n.InFlight()))
	for _, t := range n.RecvFree() {
		if t > now {
			fp.Push(trace.FPSim, int64(t))
		} else {
			fp.Push(trace.FPExact, 0)
		}
	}
	fp.Push(trace.FPAccum, n.Messages)
	fp.Push(trace.FPAccum, n.Bytes)
	fp.Push(trace.FPAccum, int64(n.TotalTransit))
	fp.Push(trace.FPAccum, int64(n.ContentionAdd))
	fp.Push(trace.FPAccum, int64(n.QueueingAdd))
	fp.Push(trace.FPExact, int64(n.MaxInFlight))
}

// walkLiveMsgs visits every live message slot exactly once per holder:
// future-event-list array order, then the cached top, the continuation
// register, and the per-processor service queues. Dead slots (on the
// free list) are never visited. Only the shift application uses it,
// and per-message shifts are order-independent; the fingerprint walks
// messages in canonical encounter order instead.
func (e *engine) walkLiveMsgs(f func(m *message)) {
	for i := range e.fel.q {
		if mi := e.fel.q[i].msg; mi != noMsg {
			f(e.msgs.at(mi))
		}
	}
	if e.fel.topOK && e.fel.top.msg != noMsg {
		f(e.msgs.at(e.fel.top.msg))
	}
	if e.contOK && e.cont.msg != noMsg {
		f(e.msgs.at(e.cont.msg))
	}
	for i := range e.procs {
		for _, mi := range e.procs[i].svcQueue {
			f(e.msgs.at(mi))
		}
	}
}

// --- engine shift -----------------------------------------------------------

// applyReplayShift advances the engine by j chunks of the learned
// deltas, mirroring appendReplayFingerprint slot for slot (accumulator
// strides are consumed in push order).
func (e *engine) applyReplayShift(j int64, d *trace.ReplayDeltas) {
	now := e.now // pre-shift anchor for the liveness conditionals
	dSim := vtime.Time(j * d.Sim)
	dTrans := vtime.Time(j * d.Trans)
	e.now += dSim
	e.nbars += int(j * d.NextAccum())
	for i := range e.threads {
		t := &e.threads[i]
		if t.curOK {
			t.cur.Time += dTrans
			if t.cur.Kind == trace.KindBarrierEntry || t.cur.Kind == trace.KindBarrierExit {
				t.cur.Arg0 += j * d.Bar
			}
		}
		t.prevT += dTrans
		if t.state == tsComputing {
			t.segEnd += dSim
		}
		if t.state == tsWaitReply || t.state == tsWaitBarrier {
			t.blockAt += dSim
		}
		if t.state == tsWaitCPU {
			t.readyAt += dSim
		}
		st := &t.stats
		st.Compute += vtime.Time(j * d.NextAccum())
		st.CommWait += vtime.Time(j * d.NextAccum())
		st.BarrierWait += vtime.Time(j * d.NextAccum())
		st.Service += vtime.Time(j * d.NextAccum())
		st.CPUWait += vtime.Time(j * d.NextAccum())
		st.RemoteReads += j * d.NextAccum()
		st.RemoteWrites += j * d.NextAccum()
		st.Barriers += j * d.NextAccum()
		st.Finish += vtime.Time(j * d.NextAccum())
	}
	for i := range e.procs {
		p := &e.procs[i]
		if p.svcBusyUntil > now {
			p.svcBusyUntil += dSim
		}
	}
	for i := range e.fel.q {
		e.fel.q[i].at += dSim
	}
	if e.fel.topOK {
		e.fel.top.at += dSim
	}
	if e.contOK {
		e.cont.at += dSim
	}
	e.shiftBars(j, d)
	e.walkLiveMsgs(func(m *message) {
		if m.kind == mBarArrive || m.kind == mBarRelease {
			m.barrier += j * d.Bar
		}
	})
	shiftNet(e.inter, j, d, now)
	if e.intra != nil {
		shiftNet(e.intra, j, d, now)
	}
}

// shiftBars slides the barrier tail window: the dense-by-id slice grows
// in one step by j×Δbar zeroed records and the tracked records relocate
// to their new ids (carrying their tree tables with them). Records
// falling below the window are zeroed — provably never read again (see
// ffBarWindow), so event replay's frozen values and these zeros are
// interchangeable.
func (e *engine) shiftBars(j int64, d *trace.ReplayDeltas) {
	grow := j * d.Bar
	nb := len(e.bars)
	w := ffBarWindow
	if nb < w {
		w = nb
	}
	if grow > 0 {
		var win [ffBarWindow]barSt
		copy(win[:w], e.bars[nb-w:])
		for id := nb - w; id < nb; id++ {
			e.bars[id] = barSt{}
		}
		e.bars = slices.Grow(e.bars, int(grow))[:nb+int(grow)]
		clear(e.bars[nb:])
		base := len(e.bars) - w
		for k := 0; k < w; k++ {
			shiftBarSt(&win[k], j, d)
			e.bars[base+k] = win[k]
		}
	} else {
		for id := nb - w; id < nb; id++ {
			shiftBarSt(&e.bars[id], j, d)
		}
	}
}

func shiftBarSt(b *barSt, j int64, d *trace.ReplayDeltas) {
	dBarS := vtime.Time(j * d.BarS)
	if b.used {
		b.id += j * d.Bar
	}
	if b.maxArrive != 0 {
		b.maxArrive += dBarS
	}
	if b.masterFreeAt != 0 {
		b.masterFreeAt += dBarS
	}
	if b.lastArrProc != 0 {
		b.lastArrProc += dBarS
	}
	for i := range b.nodeFreeAt {
		if b.nodeFreeAt[i] != 0 {
			b.nodeFreeAt[i] += dBarS
		}
	}
}

func shiftNet(n *network.Network, j int64, d *trace.ReplayDeltas, now vtime.Time) {
	dSim := vtime.Time(j * d.Sim)
	rf := n.RecvFree()
	for i := range rf {
		if rf[i] > now {
			rf[i] += dSim
		}
	}
	n.Messages += j * d.NextAccum()
	n.Bytes += j * d.NextAccum()
	n.TotalTransit += vtime.Time(j * d.NextAccum())
	n.ContentionAdd += vtime.Time(j * d.NextAccum())
	n.QueueingAdd += vtime.Time(j * d.NextAccum())
}
