package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"extrap/internal/sim"
	"extrap/internal/trace"
)

// TestExtrapolateReaderMatchesExtrapolate: the streaming pipeline's
// prediction must equal the in-memory pipeline's, field for field,
// including the emitted trace byte for byte.
func TestExtrapolateReaderMatchesExtrapolate(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := freeConfig()
	cfg.EmitTrace = true
	want, err := Extrapolate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtrapolateReader(context.Background(), tr.Header(), tr.Reader(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Measured1P != want.Measurement.Duration() {
		t.Errorf("Measured1P = %v, want %v", got.Measured1P, want.Measurement.Duration())
	}
	if got.Ideal != want.Parallel.Duration() {
		t.Errorf("Ideal = %v, want %v", got.Ideal, want.Parallel.Duration())
	}
	var wantTrace, gotTrace bytes.Buffer
	if err := trace.WriteBinary(&wantTrace, want.Result.Trace); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&gotTrace, got.Result.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantTrace.Bytes(), gotTrace.Bytes()) {
		t.Error("emitted traces differ between streaming and in-memory pipelines")
	}
	wantRes, gotRes := *want.Result, *got.Result
	wantRes.Trace, gotRes.Trace = nil, nil
	if !reflect.DeepEqual(wantRes, gotRes) {
		t.Errorf("results differ:\nin-memory: %+v\nstreaming: %+v", wantRes, gotRes)
	}
}

// TestExtrapolateEncodedMatches: decode → translate → simulate from the
// compact bytes gives the same prediction.
func TestExtrapolateEncodedMatches(t *testing.T) {
	tr, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := trace.WriteBinary(&enc, tr); err != nil {
		t.Fatal(err)
	}
	want, err := Extrapolate(tr, freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtrapolateEncoded(context.Background(), enc.Bytes(), freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("results differ:\nin-memory: %+v\nstreaming: %+v", want.Result, got.Result)
	}
	if got.Measured1P != tr.Duration() {
		t.Errorf("Measured1P = %v, want %v", got.Measured1P, tr.Duration())
	}
}

// TestEncodedCachePurity: concurrent sweep cells replaying one cached
// compiled trace must agree with the event-replay oracle, and the
// cached bytes must be bit-identical before and after — the aliasing
// guarantee of the cache. Under -race this also proves the hit path is
// data-race free.
func TestEncodedCachePurity(t *testing.T) {
	c := NewTraceCache(4, 0)
	ctx := context.Background()
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }

	enc, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), enc...)
	oracle := func(cfg sim.Config) *Prediction {
		cfg.Replay = sim.ReplayEvent
		p, err := ExtrapolateEncoded(ctx, before, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	fast, slow := freeConfig(), freeConfig()
	slow.MipsRatio = 0.5
	want := []*Prediction{oracle(fast), oracle(slow)}

	const cells = 8
	var wg sync.WaitGroup
	for g := 0; g < cells; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := []sim.Config{fast, slow}[i%2]
			comp, err := c.Compiled(ctx, key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			p, err := comp.Extrapolate(ctx, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(p, want[i%2]) {
				t.Errorf("cell %d: prediction differs from the event-replay oracle", i)
			}
		}(g)
	}
	wg.Wait()

	after, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("cached encoded trace changed while cells consumed it")
	}
	if hits, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d (hits %d), want exactly one measurement", misses, hits)
	}
	if cs := c.CompiledStats(); cs.Misses != 1 {
		t.Errorf("compiled %d times, want once: %+v", cs.Misses, cs)
	}
}

// TestSharedCacheHitPurity: cells simulating one shared compiled trace
// must leave it as they found it — a replay after many concurrent ones
// still predicts exactly what a fresh compile of the same bytes does.
func TestSharedCacheHitPurity(t *testing.T) {
	c := NewTraceCache(0, 0)
	ctx := context.Background()
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comp, err := c.Compiled(ctx, key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			cfg := freeConfig()
			if i%2 == 1 {
				cfg.MipsRatio = 2
			}
			if _, err := comp.Extrapolate(ctx, cfg); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()

	shared, err := c.Compiled(ctx, key, measure)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encoded(key, measure)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Compile(ctx, enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := shared.Extrapolate(ctx, freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Extrapolate(ctx, freeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("shared compiled trace mutated by concurrent cells")
	}
}

// TestCompiledMatchesEventOracle: both compiled forms — the pattern
// program kept when fast-forward can engage and the packed translation
// otherwise — compiled from either encoding replay, in either replay
// mode, exactly what the event-replay oracle predicts from the bytes,
// emitted trace included.
func TestCompiledMatchesEventOracle(t *testing.T) {
	ctx := context.Background()
	loop, err := fuzzProgram([]byte("1G1")) // long enough to fast-forward
	if err != nil {
		t.Fatal(err)
	}
	short, err := Measure(testProgram(4), MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		tr      *trace.Trace
		pattern bool // XTRP2 compiles to the pattern program
	}{{"loop", loop, true}, {"short", short, false}} {
		for _, f := range []trace.Format{trace.FormatXTRP1, trace.FormatXTRP2} {
			var buf bytes.Buffer
			if err := trace.WriteBinaryFormat(&buf, tc.tr, f); err != nil {
				t.Fatal(err)
			}
			comp, err := Compile(ctx, buf.Bytes())
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.name, f, err)
			}
			if got, want := comp.ct != nil, tc.pattern && f == trace.FormatXTRP2; got != want {
				t.Errorf("%s/%v: pattern form = %v, want %v", tc.name, f, got, want)
			}
			for _, emit := range []bool{false, true} {
				cfg := sim.DefaultConfig()
				cfg.EmitTrace = emit
				cfg.Replay = sim.ReplayEvent
				want, err := ExtrapolateEncoded(ctx, buf.Bytes(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []sim.ReplayMode{sim.ReplayEvent, sim.ReplayPattern} {
					cfg.Replay = mode
					got, err := comp.Extrapolate(ctx, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s/%v/%v emit=%v: compiled replay differs from the event-replay oracle", tc.name, f, mode, emit)
					}
				}
			}
		}
	}
}

// TestEncodedCacheTraceTooLarge: a measurement whose encoding exceeds
// the budget is rejected with ErrTraceTooLarge, and the failure is
// memoized like any deterministic outcome.
func TestEncodedCacheTraceTooLarge(t *testing.T) {
	c := NewTraceCache(4, 64) // smaller than any real header+events
	key := CacheKey{Bench: "test", Threads: 4}
	measure := func() (*trace.Trace, error) { return Measure(testProgram(4), MeasureOptions{}) }
	for i := 0; i < 2; i++ {
		if _, err := c.Encoded(key, measure); !errors.Is(err, ErrTraceTooLarge) {
			t.Fatalf("call %d: err = %v, want ErrTraceTooLarge", i, err)
		}
	}
	if _, err := c.Compiled(context.Background(), key, measure); !errors.Is(err, ErrTraceTooLarge) {
		t.Fatalf("Compiled: err = %v, want ErrTraceTooLarge", err)
	}
	if _, misses := c.Stats(); misses != 1 {
		t.Errorf("misses = %d, want 1 (failure memoized)", misses)
	}
}

// TestCompiledTierBudget: the compiled tier holds at most its byte
// budget, evicting least recently used compiled forms — which then
// recompile from the cached bytes, without re-measuring — and never
// keeps a form larger than the whole budget. Evicting an entry from the
// byte tier drops its compiled form too.
func TestCompiledTierBudget(t *testing.T) {
	ctx := context.Background()
	measureFor := func(threads int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) { return Measure(testProgram(threads), MeasureOptions{}) }
	}
	keyFor := func(threads int) CacheKey { return CacheKey{Bench: "test", Threads: threads} }
	sizes := map[int]int64{}
	for _, n := range []int{2, 4} {
		comp, err := NewTraceCache(0, 0).Compiled(ctx, keyFor(n), measureFor(n))
		if err != nil {
			t.Fatal(err)
		}
		sizes[n] = comp.Size()
	}

	c := NewTraceCache(0, 0)
	c.compBudget = sizes[2] + sizes[4] - 1 // room for either, not both
	lookup := func(n int) {
		t.Helper()
		if _, err := c.Compiled(ctx, keyFor(n), measureFor(n)); err != nil {
			t.Fatal(err)
		}
	}
	lookup(2)
	lookup(4) // evicts 2's compiled form
	if cs := c.CompiledStats(); cs.Entries != 1 || cs.Bytes != sizes[4] || cs.Misses != 2 {
		t.Fatalf("after two compiles: %+v, want one resident entry of %d bytes", cs, sizes[4])
	}
	lookup(2) // recompiles from bytes
	if cs := c.CompiledStats(); cs.Misses != 3 || cs.Hits != 0 || cs.Bytes != sizes[2] {
		t.Fatalf("after recompile: %+v", cs)
	}
	if _, misses := c.Stats(); misses != 2 {
		t.Errorf("measured %d times, want 2 (recompiles reuse the bytes)", misses)
	}

	c.compBudget = sizes[4] - 1 // 4's form no longer fits at all
	c.dropCompiledLocked(c.entries[keyFor(2)].Value.(*lruNode).e)
	lookup(4)
	lookup(4)
	if cs := c.CompiledStats(); cs.Entries != 0 || cs.Bytes != 0 || cs.Misses != 5 {
		t.Fatalf("oversized form was kept: %+v", cs)
	}

	bounded := NewTraceCache(1, 0)
	if _, err := bounded.Compiled(ctx, keyFor(2), measureFor(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := bounded.Encoded(keyFor(4), measureFor(4)); err != nil {
		t.Fatal(err)
	}
	if cs := bounded.CompiledStats(); cs.Entries != 0 || cs.Bytes != 0 {
		t.Fatalf("byte-tier eviction left a compiled form behind: %+v", cs)
	}
}
