package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// TestStreamingServiceMatchesInMemory: the Service — bytes compiled
// once, replayed with fast-forward — must predict exactly what the
// in-memory pipeline (core.Extrapolate on the live measurement)
// predicts — same scalars, same Result — for single predictions and for
// sweeps. It covers every suite kernel on every machine preset, for a
// Service measuring fresh into XTRP2 and for one whose store holds only
// legacy XTRP1 artifacts; each measurement is compiled once per
// Service, and only the fresh one measures.
func TestStreamingServiceMatchesInMemory(t *testing.T) {
	ctx := context.Background()
	suite := benchmarks.Suite()
	envs := machine.Presets()
	procs := []int{1, 2, 4}
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	live := map[core.CacheKey]*trace.Trace{}
	legacy := legacyStore{}
	for _, b := range suite {
		size := quickSize(b)
		for _, n := range procs {
			tr, err := core.Measure(b.Factory(size)(n), mopts)
			if err != nil {
				t.Fatal(err)
			}
			key := MeasurementKey(b.Name(), size, n, mopts)
			live[key] = tr
			var buf bytes.Buffer
			if err := trace.WriteBinary(&buf, tr); err != nil {
				t.Fatal(err)
			}
			legacy[key.CanonicalFormat(trace.FormatXTRP1)] = buf.Bytes()
		}
	}
	for _, f := range []trace.Format{trace.FormatXTRP1, trace.FormatXTRP2} {
		str := NewService(2, 0, 0)
		if f == trace.FormatXTRP1 {
			str.SetBackend(legacy)
		}
		for _, b := range suite {
			t.Run(f.String()+"/"+b.Name(), func(t *testing.T) {
				size := quickSize(b)
				extrapolate := func(n int, cfg sim.Config) *core.Outcome {
					t.Helper()
					oc, err := core.Extrapolate(live[MeasurementKey(b.Name(), size, n, mopts)], cfg)
					if err != nil {
						t.Fatal(err)
					}
					return oc
				}
				jobs := make([]SweepJob, len(envs))
				want := make([][]metrics.Point, len(envs))
				for i, env := range envs {
					oc := extrapolate(4, env.Config)
					got, err := str.Predict(ctx, b, size, 4, pcxx.ActualSize, env.Config)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Result, oc.Result) || got.Measured1P != oc.Measurement.Duration() || got.Ideal != oc.Parallel.Duration() {
						t.Errorf("%s: service (%v, %v, %+v) vs in-memory (%v, %v, %+v)", env.Name,
							got.Measured1P, got.Ideal, *got.Result, oc.Measurement.Duration(), oc.Parallel.Duration(), *oc.Result)
					}
					jobs[i] = SweepJob{Name: b.Name(), Size: size, Factory: b.Factory(size), Mode: pcxx.ActualSize, Cfg: env.Config, Procs: procs}
					for _, n := range procs {
						want[i] = append(want[i], metrics.Point{Procs: n, Time: extrapolate(n, env.Config).Result.TotalTime})
					}
				}
				got, err := str.SweepGrid(ctx, jobs)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("sweep grid differs:\n got %v\nwant %v", got, want)
				}
			})
		}
		measurements := int64(len(suite) * len(procs))
		wantMeasured := measurements
		if f == trace.FormatXTRP1 {
			wantMeasured = 0
		}
		if _, misses := str.CacheStats(); misses != wantMeasured {
			t.Errorf("%v: service measured %d times, want %d", f, misses, wantMeasured)
		}
		if cs := str.CompiledStats(); cs.Misses != measurements {
			t.Errorf("%v: service compiled %d times, want %d", f, cs.Misses, measurements)
		}
	}
}

// legacyStore is a read-only trace backend holding artifacts under
// their canonical keys, as a store written by an older build does.
type legacyStore map[string][]byte

func (s legacyStore) GetTrace(key core.CacheKey, f trace.Format) ([]byte, bool) {
	enc, ok := s[key.CanonicalFormat(f)]
	return enc, ok
}

func (legacyStore) PutTrace(core.CacheKey, trace.Format, []byte) {}

// TestStreamingServiceTraceBudget: a measurement encoding past the
// budget surfaces core.ErrTraceTooLarge from every prediction entry
// point, and the deterministic rejection is memoized.
func TestStreamingServiceTraceBudget(t *testing.T) {
	b := mustBench(t, "grid")
	size := quickSize(b)
	ctx := context.Background()
	str := NewService(1, 4, 64) // far below any real encoding

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

// TestSharedCompileMatchesPrivate: cells that share one compiled trace
// through the cache must predict exactly what a private event-replay
// of the measurement's bytes predicts — per-cell sweeps at several
// worker counts, and PredictEach against Predict — while every cell
// still looks its measurement up in the cache and each measurement
// compiles once. Run under -race this also covers concurrent cursors on
// one compile.
func TestSharedCompileMatchesPrivate(t *testing.T) {
	ctx := context.Background()
	cfgs := machineGrid(4)
	procs := []int{1, 2, 4, 8}
	jobs := gridJobs(t, "cyclic", cfgs, procs)
	want := make([][]metrics.Point, len(jobs))
	for _, n := range procs {
		enc := measureXTRP2(t, jobs[0], n)
		for j := range jobs {
			cfg := jobs[j].Cfg
			cfg.Replay = sim.ReplayEvent
			p, err := core.ExtrapolateEncoded(ctx, enc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[j] = append(want[j], metrics.Point{Procs: n, Time: p.Result.TotalTime})
		}
	}
	for _, workers := range []int{1, 3} {
		svc := NewService(workers, 0, 0)
		got, err := svc.SweepGrid(ctx, jobs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: shared-compile grid differs:\n got %v\nwant %v", workers, got, want)
		}
		hits, misses := svc.CacheStats()
		if cells := int64(len(cfgs) * len(procs)); hits+misses != cells {
			t.Errorf("workers=%d: %d cache lookups for %d cells", workers, hits+misses, cells)
		}
		if cs := svc.CompiledStats(); cs.Misses != int64(len(procs)) {
			t.Errorf("workers=%d: compiled %d times for %d measurements", workers, cs.Misses, len(procs))
		}
	}

	b := mustBench(t, "cyclic")
	sz := quickSize(b)
	svc := NewService(1, 0, 0)
	each, err := svc.PredictEach(ctx, b, sz, 4, pcxx.ActualSize, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		p, err := svc.Predict(ctx, b, sz, 4, pcxx.ActualSize, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(each[i], p) {
			t.Errorf("config %d: PredictEach %+v, Predict %+v", i, each[i].Result, p.Result)
		}
	}
	if cs := svc.CompiledStats(); cs.Misses != 1 {
		t.Errorf("PredictEach and Predict compiled %d times, want 1", cs.Misses)
	}
}

// measureXTRP2 measures job's program at n threads and returns its
// XTRP2 encoding.
func measureXTRP2(t *testing.T, job SweepJob, n int) []byte {
	t.Helper()
	tr, err := core.Measure(job.Factory(n), core.MeasureOptions{SizeMode: job.Mode})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteBinary2(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedCompileDropsTrace: a compiled trace lives only as long as
// its cache entry — evicting the measurement drops its compiled form,
// and a later request recompiles.
func TestSharedCompileDropsTrace(t *testing.T) {
	ctx := context.Background()
	b := mustBench(t, "cyclic")
	sz := quickSize(b)
	svc := NewService(1, 1, 0) // one entry
	predict := func(n int) {
		t.Helper()
		if _, err := svc.Predict(ctx, b, sz, n, pcxx.ActualSize, freeCfg()); err != nil {
			t.Fatal(err)
		}
	}
	predict(2)
	predict(2)
	if cs := svc.CompiledStats(); cs.Misses != 1 || cs.Hits != 1 || cs.Entries != 1 || cs.Bytes <= 0 {
		t.Fatalf("after a repeated request: %+v, want one resident compile", cs)
	}
	predict(4) // evicts the 2-thread entry and its compiled form
	if cs := svc.CompiledStats(); cs.Misses != 2 || cs.Entries != 1 {
		t.Fatalf("after eviction: %+v, want exactly the 4-thread form resident", cs)
	}
	predict(2)
	if cs := svc.CompiledStats(); cs.Misses != 3 {
		t.Fatalf("evicted measurement served a stale compile: %+v", cs)
	}
}

// TestFittedSweepCompilesEachAnchorOnce: a fitted sweep of several
// machine curves over one program simulates each anchor measurement
// under every curve from one compile of it.
func TestFittedSweepCompilesEachAnchorOnce(t *testing.T) {
	procs := make([]int, 16)
	for i := range procs {
		procs[i] = i + 1
	}
	svc := NewService(2, 0, 0)
	if _, err := svc.SweepGridFitted(context.Background(), gridJobs(t, "grid", machineGrid(3), procs)); err != nil {
		t.Fatal(err)
	}
	_, measured := svc.CacheStats()
	cs := svc.CompiledStats()
	if measured == 0 || cs.Misses != measured || cs.Hits == 0 {
		t.Errorf("compiled %d times for %d anchor measurements (%+v)", cs.Misses, measured, cs)
	}
}
