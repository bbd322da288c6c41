package translate

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// Packed is a whole translation held compactly: each thread's translated
// events delta-encoded into one byte run, a few bytes per event instead
// of the 40 of a materialized ParallelTrace. Translation takes no
// machine parameters, so one Packed serves every simulation of its
// measurement; each replay reads it through its own cursors. A Packed
// is immutable and safe for concurrent replays.
//
// Per event, a thread's run holds a header byte — the kind in the low
// four bits, then one bit each for a non-zero time, arg0, arg1 and arg2
// delta — followed by the non-zero deltas as signed varints: the
// translated time against the thread's previous event, each argument
// against the thread's previous event of the same kind, so the
// arguments of a repeated access pattern mostly cost nothing.
type Packed struct {
	phases      []string
	threads     [][]byte
	barriers    int
	srcDuration vtime.Time
	duration    vtime.Time
}

// packArgs is the per-thread delta context of the packed encoding.
type packArgs struct {
	time vtime.Time
	args [trace.KindMsgRecv + 1][3]int64
}

// ctxCheckMask paces Pack's cancellation polls to once per 8192 events.
const ctxCheckMask = 1<<13 - 1

// Pack translates the merged measurement arriving from src (described
// by hdr) into a Packed translation, validating it exactly as Stream
// does. ctx is polled as events are read.
func Pack(ctx context.Context, hdr trace.Header, src trace.Reader) (*Packed, error) {
	s, err := NewStream(hdr, src, StreamOptions{})
	if err != nil {
		return nil, err
	}
	runs := make([][]byte, s.n)
	last := make([]packArgs, s.n)
	for {
		if s.idx&ctxCheckMask == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("translate: aborted after %d events: %w", s.idx, err)
			}
		}
		if s.pull(); s.err != nil || s.srcDone {
			break
		}
		th := s.last
		e := s.queues[th].pop()
		s.pending--
		pc := &last[th]
		a := &pc.args[e.Kind]
		deltas := [4]int64{int64(e.Time - pc.time), e.Arg0 - a[0], e.Arg1 - a[1], e.Arg2 - a[2]}
		head := byte(e.Kind)
		for i, d := range deltas {
			if d != 0 {
				head |= 1 << (4 + i)
			}
		}
		b := append(runs[th], head)
		for _, d := range deltas {
			if d != 0 {
				b = binary.AppendVarint(b, d)
			}
		}
		runs[th] = b
		pc.time = e.Time
		a[0], a[1], a[2] = e.Arg0, e.Arg1, e.Arg2
	}
	if s.err != nil {
		return nil, s.err
	}
	// One exact-size backing array: the per-thread growth slack of the
	// append buffers would otherwise stay resident with the translation.
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	buf := make([]byte, 0, total)
	p := &Packed{
		phases:      hdr.Phases,
		threads:     make([][]byte, s.n),
		barriers:    len(s.barriers),
		srcDuration: s.srcDuration,
		duration:    s.maxTranslated,
	}
	for i, r := range runs {
		buf = append(buf, r...)
		p.threads[i] = buf[len(buf)-len(r) : len(buf) : len(buf)]
	}
	return p, nil
}

// SourceDuration returns the 1-processor virtual execution time: the
// timestamp of the last source event.
func (p *Packed) SourceDuration() vtime.Time { return p.srcDuration }

// Duration returns the idealized parallel execution time: the latest
// translated timestamp.
func (p *Packed) Duration() vtime.Time { return p.duration }

// Size estimates the heap bytes the translation holds.
func (p *Packed) Size() int64 {
	n := int64(len(p.threads)) * 24
	for _, r := range p.threads {
		n += int64(len(r))
	}
	return n
}

// Replay returns a fresh set of per-thread cursors over the translation,
// in the shape a streaming simulation consumes. The cursors of one
// replay are allocated together.
func (p *Packed) Replay() *PackedReplay {
	r := &PackedReplay{p: p, cursors: make([]packedCursor, len(p.threads))}
	for i := range r.cursors {
		r.cursors[i] = packedCursor{run: p.threads[i], thread: int32(i)}
	}
	return r
}

// PackedReplay is one replay's cursors over a Packed translation. Like
// a Stream it is single-consumer.
type PackedReplay struct {
	p       *Packed
	cursors []packedCursor
}

// NumThreads returns the thread count.
func (r *PackedReplay) NumThreads() int { return len(r.cursors) }

// Phases returns the phase-name table.
func (r *PackedReplay) Phases() []string { return r.p.phases }

// Barriers returns the number of global barriers in the program.
func (r *PackedReplay) Barriers() int { return r.p.barriers }

// Thread returns thread i's translated event cursor.
func (r *PackedReplay) Thread(i int) trace.Reader { return &r.cursors[i] }

// packedCursor decodes one thread's run.
type packedCursor struct {
	run    []byte
	pos    int
	thread int32
	last   packArgs
}

// Next returns the thread's next translated event, or io.EOF.
func (c *packedCursor) Next() (trace.Event, error) {
	if c.pos >= len(c.run) {
		return trace.Event{}, io.EOF
	}
	run, pos, last := c.run, c.pos, &c.last
	head := run[pos]
	pos++
	k := trace.Kind(head & 0xf)
	var d int64
	if head&(1<<4) != 0 {
		d, pos = varintAt(run, pos)
		last.time += vtime.Time(d)
	}
	a := &last.args[k]
	if head&(1<<5) != 0 {
		d, pos = varintAt(run, pos)
		a[0] += d
	}
	if head&(1<<6) != 0 {
		d, pos = varintAt(run, pos)
		a[1] += d
	}
	if head&(1<<7) != 0 {
		d, pos = varintAt(run, pos)
		a[2] += d
	}
	c.pos = pos
	return trace.Event{Time: last.time, Kind: k, Thread: c.thread, Arg0: a[0], Arg1: a[1], Arg2: a[2]}, nil
}

// varintAt decodes the signed varint at b[i], returning it and the
// index past it. Pack wrote b, so the varint is well formed.
func varintAt(b []byte, i int) (int64, int) {
	var ux uint64
	for s := uint(0); ; s += 7 {
		x := b[i]
		i++
		if x < 0x80 {
			ux |= uint64(x) << s
			break
		}
		ux |= uint64(x&0x7f) << s
	}
	return int64(ux>>1) ^ -int64(ux&1), i
}
