package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"extrap/internal/trace"
)

// TestParallelSweepMatchesSequential: the concurrent sweep must be
// observably identical to the sequential one at any worker count.
func TestParallelSweepMatchesSequential(t *testing.T) {
	procs := []int{1, 2, 4, 8}
	want, err := ParallelSweep(testProgram, MeasureOptions{}, freeConfig(), procs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4} {
		got, err := ParallelSweep(testProgram, MeasureOptions{}, freeConfig(), procs, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: points %v, want %v", workers, got, want)
		}
	}
}

func TestSweepProcsStillSequential(t *testing.T) {
	pts, err := SweepProcs(testProgram, MeasureOptions{}, freeConfig(), []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Procs != 1 || pts[1].Procs != 2 {
		t.Fatalf("unexpected points %v", pts)
	}
}

// TestTraceCacheSingleflight: concurrent lookups of one key run the
// measurement exactly once and share the resulting bytes.
func TestTraceCacheSingleflight(t *testing.T) {
	c := NewTraceCache(0, 0)
	key := CacheKey{Bench: "test", N: 8, Iters: 3, Threads: 4}
	var calls int
	var mu sync.Mutex
	measure := func() (*trace.Trace, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return Measure(testProgram(4), MeasureOptions{})
	}

	const goroutines = 8
	got := make([][]byte, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			enc, err := c.Encoded(key, measure)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = enc
		}(g)
	}
	wg.Wait()

	if calls != 1 {
		t.Errorf("measurement ran %d times, want 1", calls)
	}
	for g := 1; g < goroutines; g++ {
		if &got[g][0] != &got[0][0] {
			t.Errorf("goroutine %d got different bytes", g)
		}
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != goroutines-1 {
		t.Errorf("Stats() = %d hits, %d misses; want %d, 1", hits, misses, goroutines-1)
	}
}

// TestTraceCacheKeysDistinct: distinct keys are measured independently.
func TestTraceCacheKeysDistinct(t *testing.T) {
	c := NewTraceCache(0, 0)
	for _, threads := range []int{2, 4, 2, 4, 2} {
		_, err := c.Encoded(CacheKey{Bench: "test", Threads: threads}, func() (*trace.Trace, error) {
			return Measure(testProgram(threads), MeasureOptions{})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := c.Stats()
	if misses != 2 || hits != 3 {
		t.Errorf("Stats() = %d hits, %d misses; want 3, 2", hits, misses)
	}
}

// TestTraceCacheTranslated: the compiled (translated) form is memoized
// on top of the measurement — one compile shared by every lookup — and
// the measure error is surfaced without caching anything.
func TestTraceCacheTranslated(t *testing.T) {
	c := NewTraceCache(0, 0)
	ctx := context.Background()
	key := CacheKey{Bench: "test", Threads: 4}
	ct1, err := c.Compiled(ctx, key, func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	})
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := c.Compiled(ctx, key, func() (*trace.Trace, error) {
		t.Error("measure ran again on a cached key")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ct1 != ct2 {
		t.Error("compiled trace not shared between lookups")
	}
	if cs := c.CompiledStats(); cs.Misses != 1 || cs.Hits != 1 || cs.Entries != 1 || cs.Bytes != ct1.Size() {
		t.Errorf("CompiledStats() = %+v, want 1 compile, 1 hit, 1 entry of %d bytes", cs, ct1.Size())
	}

	boom := errors.New("measure failed")
	if _, err := c.Compiled(ctx, CacheKey{Bench: "bad"}, func() (*trace.Trace, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Errorf("got %v, want %v", err, boom)
	}
}

// TestBoundedTraceCacheEvictsLRU: past the bound, the least recently
// used entry is evicted and a later lookup for it re-measures.
func TestBoundedTraceCacheEvictsLRU(t *testing.T) {
	c := NewTraceCache(2, 0)
	var calls int
	measureFor := func(threads int) func() (*trace.Trace, error) {
		return func() (*trace.Trace, error) {
			calls++
			return Measure(testProgram(threads), MeasureOptions{})
		}
	}
	keyA := CacheKey{Bench: "test", Threads: 2}
	keyB := CacheKey{Bench: "test", Threads: 3}
	keyC := CacheKey{Bench: "test", Threads: 4}

	mustMeasure := func(key CacheKey, threads int) {
		t.Helper()
		if _, err := c.Encoded(key, measureFor(threads)); err != nil {
			t.Fatal(err)
		}
	}
	mustMeasure(keyA, 2) // cache: A
	mustMeasure(keyB, 3) // cache: B, A
	mustMeasure(keyA, 2) // hit; cache: A, B
	if calls != 2 {
		t.Fatalf("calls = %d before eviction, want 2", calls)
	}
	mustMeasure(keyC, 4) // evicts B (LRU); cache: C, A
	if got := c.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	mustMeasure(keyA, 2) // still cached
	if calls != 3 {
		t.Fatalf("calls = %d after A re-lookup, want 3 (A retained)", calls)
	}
	mustMeasure(keyB, 3) // evicted, must re-measure
	if calls != 4 {
		t.Fatalf("calls = %d after B re-lookup, want 4 (B was evicted)", calls)
	}
}

// TestTraceCacheDoesNotMemoizeContextErrors: a measurement aborted by a
// caller's deadline must not poison the cache — the next caller re-runs
// it and gets the real trace.
func TestTraceCacheDoesNotMemoizeContextErrors(t *testing.T) {
	c := NewTraceCache(0, 0)
	key := CacheKey{Bench: "test", Threads: 4}
	aborted := fmt.Errorf("measuring: %w", context.DeadlineExceeded)
	if _, err := c.Encoded(key, func() (*trace.Trace, error) {
		return nil, aborted
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("first lookup error = %v, want DeadlineExceeded", err)
	}
	enc, err := c.Encoded(key, func() (*trace.Trace, error) {
		return Measure(testProgram(4), MeasureOptions{})
	})
	if err != nil || len(enc) == 0 {
		t.Fatalf("second lookup = (%d bytes, %v), want a real trace", len(enc), err)
	}
	// Same contract through Compiled with a Canceled abort.
	ctx := context.Background()
	key2 := CacheKey{Bench: "test2", Threads: 2}
	if _, err := c.Compiled(ctx, key2, func() (*trace.Trace, error) {
		return nil, context.Canceled
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compiled abort = %v, want Canceled", err)
	}
	if _, err := c.Compiled(ctx, key2, func() (*trace.Trace, error) {
		return Measure(testProgram(2), MeasureOptions{})
	}); err != nil {
		t.Fatalf("Compiled retry = %v, want success", err)
	}
}
