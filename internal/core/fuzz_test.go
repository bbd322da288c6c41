package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// fuzzProgram deterministically shapes a pcxx program from fuzz bytes:
// thread count, loop nest, compute grains, communication partners, and
// transfer sizes are all data-driven, so the fuzzer explores the space
// of loop-structured (and loop-broken) traces the XTRP2 miner and the
// pattern-replay kernel see in the wild.
func fuzzProgram(data []byte) (*trace.Trace, error) {
	at := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	threads := 2 + at(0)%6
	outer := 1 + at(1)%24
	inner := 1 + at(2)%5
	burst := at(3) % 4

	cfg := pcxx.DefaultConfig(threads)
	if at(4)%2 == 1 {
		cfg.SizeMode = pcxx.ActualSize
	}
	rt := pcxx.NewRuntime(cfg)
	c := pcxx.PerThread[[256]byte](rt, "x", 256)
	return rt.Run(func(th *pcxx.Thread) {
		var v [256]byte
		for j := 0; j < burst; j++ {
			c.Write(th, (th.ID()+1+j)%threads, v)
		}
		for i := 0; i < outer; i++ {
			for j := 0; j < inner; j++ {
				g := at(5 + i*inner + j)
				th.Compute(vtime.Time(1+g%40) * vtime.Microsecond)
				sz := int64(1 + at(6+i+j)%256)
				_ = c.ReadPart(th, (th.ID()+1+at(7+j)%(threads-1))%threads, sz)
			}
			if at(8+i)%3 != 0 {
				th.Barrier()
			}
		}
	})
}

// FuzzPatternReplayEquivalence is the tentpole invariant under fuzzing:
// for any measurable program, the XTRP2 encoding replayed through the
// pattern-native path (compiled pattern programs + steady-state
// fast-forward) must produce a prediction byte-identical to flat
// event-by-event replay — same totals, same per-thread breakdowns, same
// network statistics. Pattern replay runs twice, with fast-forward's
// shiftable-body check on and off, and the two must also agree on the
// number of fast-forwards and iterations skipped: the check may only
// skip snapshots that could never have matched.
func FuzzPatternReplayEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 12, 2, 0, 0, 9, 17, 4, 1})
	f.Add([]byte{7, 23, 4, 3, 1, 200, 100, 50, 25, 12, 6, 3})
	f.Add(bytes.Repeat([]byte{5, 16, 1, 0, 0, 30}, 8))
	// Fast-forwards, so the seed corpus alone exercises the skip-check
	// counter comparison.
	f.Add([]byte("1G1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := fuzzProgram(data)
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := trace.WriteBinary2(&buf, tr); err != nil {
			t.Fatalf("encode: %v", err)
		}
		cfg := sim.DefaultConfig()
		cfg.Replay = sim.ReplayEvent
		want, err := ExtrapolateEncoded(context.Background(), buf.Bytes(), cfg)
		if err != nil {
			t.Fatalf("event replay: %v", err)
		}
		cfg.Replay = sim.ReplayPattern
		defer sim.SetSkipGate(sim.SetSkipGate(true))
		var ffwd [2]sim.ReplayCounters
		for i, gate := range []bool{true, false} {
			sim.SetSkipGate(gate)
			before := sim.ReadReplayCounters()
			got, err := ExtrapolateEncoded(context.Background(), buf.Bytes(), cfg)
			if err != nil {
				t.Fatalf("pattern replay (skip check %v): %v", gate, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("pattern replay (skip check %v) diverged from event replay:\n  pattern: %+v\n  event:   %+v",
					gate, got.Result, want.Result)
			}
			after := sim.ReadReplayCounters()
			ffwd[i] = sim.ReplayCounters{
				FastForwards:      after.FastForwards - before.FastForwards,
				IterationsSkipped: after.IterationsSkipped - before.IterationsSkipped,
			}
		}
		if ffwd[0] != ffwd[1] {
			t.Fatalf("skip check changed fast-forward: on %+v, off %+v", ffwd[0], ffwd[1])
		}
	})
}
