package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// TestStreamingServiceMatchesInMemory: the encoded-cache Service must
// predict exactly what the in-memory Service predicts — same scalars,
// same Result — for single predictions and for sweeps at any worker
// count.
func TestStreamingServiceMatchesInMemory(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()

	mem := NewService(2, 0)
	str := NewStreamingService(2, 0, 0)

	want, err := mem.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got.Measured1P != want.Measured1P || got.Ideal != want.Ideal {
		t.Errorf("scalars differ: streaming (%v, %v) vs in-memory (%v, %v)",
			got.Measured1P, got.Ideal, want.Measured1P, want.Ideal)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Errorf("results differ:\nstreaming: %+v\nin-memory: %+v", *got.Result, *want.Result)
	}

	// The memoized bytes serve repeat predictions without re-measuring.
	if _, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg()); err != nil {
		t.Fatal(err)
	}
	if _, misses := str.CacheStats(); misses != 1 {
		t.Errorf("streaming service measured %d times, want 1", misses)
	}

	// Sweeps route through runGrid's streaming branch and must match the
	// in-memory grid point for point.
	sb := mustBench(t, "cyclic")
	ssize := quickSize(sb)
	job := SweepJob{
		Name:    sb.Name(),
		Size:    ssize,
		Factory: sb.Factory(ssize),
		Mode:    pcxx.ActualSize,
		Cfg:     freeCfg(),
		Procs:   []int{1, 2, 4},
	}
	wantPts, err := mem.Sweep(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	gotPts, err := str.Sweep(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPts) != len(wantPts) {
		t.Fatalf("sweep returned %d points, want %d", len(gotPts), len(wantPts))
	}
	for i := range gotPts {
		if gotPts[i] != wantPts[i] {
			t.Errorf("point %d: streaming %+v != in-memory %+v", i, gotPts[i], wantPts[i])
		}
	}
}

// TestStreamingServiceOutcomeCompat: the Outcome-shaped Extrapolate
// entry point keeps working on a streaming Service (callers get private
// decoded copies), predicting the same total time.
func TestStreamingServiceOutcomeCompat(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()
	str := NewStreamingService(2, 0, 0)

	out, err := str.Extrapolate(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg())
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.TotalTime != pred.Result.TotalTime {
		t.Errorf("Extrapolate predicts %v, Predict %v", out.Result.TotalTime, pred.Result.TotalTime)
	}
	if out.Measurement.Duration() != pred.Measured1P {
		t.Errorf("measured time %v vs %v", out.Measurement.Duration(), pred.Measured1P)
	}
}

// TestStreamingServiceTraceBudget: a measurement encoding past the
// budget surfaces core.ErrTraceTooLarge from every prediction entry
// point, and the deterministic rejection is memoized.
func TestStreamingServiceTraceBudget(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()
	str := NewStreamingService(1, 4, 64) // far below any real encoding

	for i := 0; i < 2; i++ {
		if _, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, freeCfg()); !errors.Is(err, core.ErrTraceTooLarge) {
			t.Fatalf("Predict call %d: err = %v, want ErrTraceTooLarge", i, err)
		}
	}
	if _, misses := str.CacheStats(); misses != 1 {
		t.Errorf("rejected measurement ran %d times, want 1 (memoized)", misses)
	}
	job := SweepJob{Name: b.Name(), Size: size, Factory: b.Factory(size), Mode: pcxx.ActualSize, Cfg: freeCfg(), Procs: []int{2}}
	if _, err := str.Sweep(ctx, job); !errors.Is(err, core.ErrTraceTooLarge) {
		t.Errorf("Sweep err = %v, want ErrTraceTooLarge", err)
	}
}

// machineGrid builds K machine variants of the generic-dm preset —
// the "measure once, ask many what-if questions" shape: every cell at
// one ladder point shares a measurement.
func machineGrid(k int) []sim.Config {
	cfgs := make([]sim.Config, k)
	for i := range cfgs {
		cfg := machine.GenericDM().Config
		cfg.Comm.StartupTime = vtime.FromMicros(float64(10 + 20*i))
		cfg.MipsRatio = []float64{0.5, 1.0, 2.0}[i%3]
		cfgs[i] = cfg
	}
	return cfgs
}

func gridJobs(t *testing.T, bench string, cfgs []sim.Config, procs []int) []SweepJob {
	t.Helper()
	b := mustBench(t, bench)
	sz := Options{Quick: true}.size(b)
	jobs := make([]SweepJob, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = SweepJob{
			Name:    b.Name(),
			Size:    sz,
			Factory: b.Factory(sz),
			Mode:    pcxx.ActualSize,
			Cfg:     cfg,
			Procs:   procs,
		}
	}
	return jobs
}

// TestSharedCompileMatchesPrivate: on an XTRP2 cache under pattern
// replay, cells that share one compiled trace must predict exactly what
// a private compile per cell predicts — per-cell sweeps at several
// worker counts against the in-memory grid, and PredictEach against
// Predict — while every cell still looks its bytes up in the cache.
// Run under -race this also covers concurrent cursors on one compile.
func TestSharedCompileMatchesPrivate(t *testing.T) {
	cfgs := machineGrid(4)
	jobs := gridJobs(t, "cyclic", cfgs, []int{1, 2, 4, 8})
	want, err := NewService(1, 0).SweepGrid(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		svc := NewStreamingService(workers, 0, 0)
		svc.SetTraceFormat(trace.FormatXTRP2)
		got, err := svc.SweepGrid(context.Background(), jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: shared-compile grid differs:\n got %v\nwant %v", workers, got, want)
		}
		hits, misses := svc.CacheStats()
		if cells := int64(len(cfgs) * 4); hits+misses != cells {
			t.Errorf("workers=%d: %d cache lookups for %d cells", workers, hits+misses, cells)
		}
	}

	b := mustBench(t, "cyclic")
	sz := quickSize(b)
	svc := NewStreamingService(1, 0, 0)
	svc.SetTraceFormat(trace.FormatXTRP2)
	each, err := svc.PredictEach(context.Background(), b, sz, 4, pcxx.ActualSize, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		p, err := svc.Predict(context.Background(), b, sz, 4, pcxx.ActualSize, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(each[i], p) {
			t.Errorf("config %d: PredictEach %+v, Predict %+v", i, each[i].Result, p.Result)
		}
	}
}

// TestSharedCompileDropsTrace: the compiled trace lives only until the
// last of its cells finishes.
func TestSharedCompileDropsTrace(t *testing.T) {
	b := mustBench(t, "cyclic")
	tr, err := core.Measure(b.Factory(quickSize(b))(4), core.MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cfgs := machineGrid(3)
	sc := &sharedCompile{}
	sc.left.Store(int64(len(cfgs)))
	var first *trace.CompiledTrace
	for i, cfg := range cfgs {
		if _, err := sc.extrapolate(context.Background(), buf.Bytes(), cfg); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = sc.ct
		}
		if last := i == len(cfgs)-1; (sc.ct == nil) != last || (!last && sc.ct != first) {
			t.Fatalf("after cell %d of %d: compiled trace %p (first %p)", i+1, len(cfgs), sc.ct, first)
		}
	}
}
