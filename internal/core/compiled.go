package core

import (
	"bytes"
	"context"
	"fmt"

	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// Compiled is a measurement ready to replay under any machine model:
// the encoded bytes parsed once, and — since translation takes no
// machine parameters — translated once. It holds one of two forms:
//
//   - the XTRP2 pattern program, when some loop of it is long and
//     steady enough for the simulator's fast-forward (sim.CanFastForward).
//     Each replay streams it through its own translate cursor, which
//     fast-forward needs to see and skips along with the loop;
//   - otherwise the whole translation, packed (translate.Packed), which
//     every replay reads directly with no per-replay translate work.
//
// Both replay the same events, so predictions are byte-identical to
// ExtrapolateEncoded's. A Compiled is immutable and safe for concurrent
// replays.
type Compiled struct {
	ct *trace.CompiledTrace // pattern program, or nil
	pk *translate.Packed    // packed translation, or nil
}

// Compile parses and translates encoded measurement bytes in either
// XTRP format. ctx is polled while translating.
func Compile(ctx context.Context, enc []byte) (*Compiled, error) {
	if trace.IsXTRP2(enc) {
		ct, err := trace.CompileBinary(bytes.NewReader(enc))
		if err != nil {
			return nil, err
		}
		return compile(ctx, ct, ct.Header(), ct.Source())
	}
	d, err := trace.NewAnyDecoder(bytes.NewReader(enc))
	if err != nil {
		return nil, err
	}
	return compile(ctx, nil, d.Header(), d)
}

// compile keeps the pattern program ct when its replay can fast-forward
// and otherwise packs the translation of the events src yields.
func compile(ctx context.Context, ct *trace.CompiledTrace, hdr trace.Header, src trace.Reader) (*Compiled, error) {
	if ct != nil && sim.CanFastForward(ct) {
		return &Compiled{ct: ct}, nil
	}
	pk, err := translate.Pack(ctx, hdr, src)
	if err != nil {
		return nil, err
	}
	return &Compiled{pk: pk}, nil
}

// Size estimates the heap bytes the compiled form holds.
func (c *Compiled) Size() int64 {
	if c.ct != nil {
		return c.ct.Size()
	}
	return c.pk.Size()
}

// Extrapolate replays the measurement under cfg. cfg.Replay selects
// pattern replay (fast-forward allowed) or the event-by-event oracle.
func (c *Compiled) Extrapolate(ctx context.Context, cfg sim.Config) (*Prediction, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: extrapolation not started: %w", err)
	}
	if c.ct != nil {
		return ExtrapolateReader(ctx, c.ct.Header(), c.ct.Source(), cfg)
	}
	res, err := sim.SimulateStreamContext(ctx, c.pk.Replay(), cfg)
	if err != nil {
		return nil, err
	}
	return &Prediction{Measured1P: c.pk.SourceDuration(), Ideal: c.pk.Duration(), Result: res}, nil
}
