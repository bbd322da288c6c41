package experiments

import (
	"context"
	"errors"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/pcxx"
)

// quickSize returns the fast test size for a benchmark.
func quickSize(b benchmarks.Benchmark) benchmarks.Size {
	return Options{Quick: true}.size(b)
}

func TestServiceExtrapolateSharesMeasurements(t *testing.T) {
	s := NewService(2, 0)
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()

	first, err := s.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if first.Result.TotalTime != second.Result.TotalTime {
		t.Errorf("repeat extrapolation differs: %v vs %v", first.Result.TotalTime, second.Result.TotalTime)
	}
	hits, misses := s.CacheStats()
	if misses != 1 {
		t.Errorf("measurements run = %d, want 1 (memoized)", misses)
	}
	if hits == 0 {
		t.Error("no cache hits recorded for a repeated request")
	}
}

func TestServiceSweepMatchesRunnerGrid(t *testing.T) {
	b := mustBench(t, "cyclic")
	procs := []int{1, 2, 4}
	r := newRunner(Options{Quick: true, Procs: procs, Workers: 1})
	job := r.job(b, pcxx.ActualSize, freeCfg(), procs)

	want, err := r.runGrid([]SweepJob{job})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService(3, 0)
	got, err := s.Sweep(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want[0]) {
		t.Fatalf("sweep returned %d points, want %d", len(got), len(want[0]))
	}
	for i := range got {
		if got[i] != want[0][i] {
			t.Errorf("point %d: service %+v != runner %+v", i, got[i], want[0][i])
		}
	}
}

func TestServiceSweepSharesCacheWithExtrapolate(t *testing.T) {
	s := NewService(2, 0)
	b := mustBench(t, "cyclic")
	size := quickSize(b)
	job := SweepJob{
		Name:    b.Name(),
		Size:    size,
		Factory: b.Factory(size),
		Mode:    pcxx.ActualSize,
		Cfg:     freeCfg(),
		Procs:   []int{1, 2, 4},
	}
	if _, err := s.Sweep(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	_, missesAfterSweep := s.CacheStats()
	// A single prediction at a ladder point must reuse the sweep's trace.
	if _, err := s.Predict(context.Background(), b, size, 2, pcxx.ActualSize, freeCfg()); err != nil {
		t.Fatal(err)
	}
	_, misses := s.CacheStats()
	if misses != missesAfterSweep {
		t.Errorf("predict after sweep re-measured: misses %d → %d", missesAfterSweep, misses)
	}
}

func TestServiceCancellation(t *testing.T) {
	s := NewService(2, 0)
	b := mustBench(t, "grid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Predict(ctx, b, quickSize(b), 4, pcxx.ActualSize, freeCfg()); !errors.Is(err, context.Canceled) {
		t.Errorf("Predict error = %v, want context.Canceled", err)
	}
	job := SweepJob{Name: b.Name(), Size: quickSize(b), Factory: b.Factory(quickSize(b)), Cfg: freeCfg(), Procs: []int{1, 2}}
	if _, err := s.Sweep(ctx, job); !errors.Is(err, context.Canceled) {
		t.Errorf("Sweep error = %v, want context.Canceled", err)
	}
	if _, err := s.Predict(context.Background(), b, quickSize(b), 0, pcxx.ActualSize, freeCfg()); err == nil {
		t.Error("zero thread count accepted")
	}
}
