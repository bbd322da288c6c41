package experiments

import (
	"bytes"
	"context"
	"math"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/vtime"
)

// runner executes an experiment's measurement/simulation grid across the
// configured worker pool, memoizing measurements so each distinct
// (benchmark, size, threads, measure options) combination is measured
// and compiled once and then simulated under every configuration.
// Results are always written to index-addressed slots and assembled
// sequentially, so the Output is byte-identical at any worker count.
type runner struct {
	opts  Options
	cache *core.TraceCache
}

func newRunner(opts Options) *runner {
	r := &runner{opts: opts, cache: core.NewTraceCache(0, 0)}
	if opts.Backend != nil {
		r.cache.SetBackend(opts.Backend)
	}
	return r
}

// each runs fn(i) for i in [0, n) on the experiment's worker pool,
// returning the lowest-indexed error (the one a sequential loop would
// report first).
func (r *runner) each(n int, fn func(i int) error) error {
	return pool.Run(r.opts.Workers, n, fn)
}

// cacheKey builds the memo-cache key for one measurement.
func cacheKey(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions) core.CacheKey {
	return core.CacheKey{
		Bench:   bench,
		N:       size.N,
		Iters:   size.Iters,
		Verify:  size.Verify,
		Threads: threads,
		Opts:    mopts,
	}
}

// MeasurementKey is the exported form of the engine's memo-cache key
// constructor, so layers above the engine (the jobs queue, the artifact
// store wiring) can address the same measurement the engine will run —
// the content address of a job cell's trace must be the key the cache
// would use, or durability would split into two namespaces.
func MeasurementKey(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions) core.CacheKey {
	return cacheKey(bench, size, threads, mopts)
}

// measured returns the measurement trace for one benchmark run, decoded
// from the cached bytes — for experiments that read the trace itself
// rather than replay it.
func (r *runner) measured(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*trace.Trace, error) {
	enc, err := r.cache.Encoded(cacheKey(bench, size, threads, mopts), func() (*trace.Trace, error) {
		return core.Measure(f(threads), mopts)
	})
	if err != nil {
		return nil, err
	}
	return trace.ReadBinaryAny(bytes.NewReader(enc))
}

// compiled returns the (cached) compiled measurement for one benchmark
// run, measuring and compiling on first use.
func (r *runner) compiled(bench string, size benchmarks.Size, threads int, mopts core.MeasureOptions, f core.ProgramFactory) (*core.Compiled, error) {
	return r.cache.Compiled(context.Background(), cacheKey(bench, size, threads, mopts), func() (*trace.Trace, error) {
		return core.Measure(f(threads), mopts)
	})
}

// SweepJob is one curve of a parameter grid: a benchmark swept over the
// processor ladder under one simulation configuration. Jobs naming the
// same benchmark/size/mode share measurement traces through the memo
// cache regardless of how their configs differ. SweepJob is exported so
// callers outside the registered experiments — notably the `extrap
// serve` API — run the same grid machinery the paper's experiments use.
type SweepJob struct {
	// Name identifies the program for the memo cache; include variant
	// parameters that change program behavior.
	Name string
	Size benchmarks.Size
	// Factory builds the program at a thread count; it must be the same
	// program whenever (Name, Size) are the same.
	Factory core.ProgramFactory
	// Mode is the transfer-size attribution for the measurement.
	Mode pcxx.SizeMode
	// Cfg is this curve's simulation configuration.
	Cfg sim.Config
	// Procs is the processor ladder for this curve.
	Procs []int
}

// job is a convenience constructor for the common benchmark-over-ladder
// case.
func (r *runner) job(b benchmarks.Benchmark, mode pcxx.SizeMode, cfg sim.Config, procs []int) SweepJob {
	return SweepJob{
		Name:    b.Name(),
		Size:    r.opts.size(b),
		Factory: b.Factory(r.opts.size(b)),
		Mode:    mode,
		Cfg:     cfg,
		Procs:   procs,
	}
}

// runGrid fans the grid across the experiment's worker pool, through
// the fitted path when the run's FitMode selects it.
func (r *runner) runGrid(jobs []SweepJob) ([][]metrics.Point, error) {
	if r.opts.FitMode == "fitted" {
		return runGridFitted(context.Background(), r.cache, r.opts.Workers, jobs)
	}
	return runGrid(context.Background(), r.cache, r.opts.Workers, jobs)
}

// gridCell addresses one (job, ladder index) cell of a flattened grid.
type gridCell struct{ job, pt int }

// runGrid fans every (job, processor count) cell of the grid across a
// worker pool and returns one point series per job, in job order. Each
// cell looks its measurement up in the cache — cells sharing a
// measurement wait for one run and one compile, then share the
// compiled trace — and simulates independently under ctx, which bounds
// the measurement and simulation work of every cell; ctx-aborted
// measurements are not memoized. Output is byte-identical at any worker
// count.
func runGrid(ctx context.Context, cache *core.TraceCache, workers int, jobs []SweepJob) ([][]metrics.Point, error) {
	// Flatten the grid so the pool load-balances across cells of every
	// job, not one job at a time.
	var cells []gridCell
	points := make([][]metrics.Point, len(jobs))
	for j := range jobs {
		points[j] = make([]metrics.Point, len(jobs[j].Procs))
		for i := range jobs[j].Procs {
			cells = append(cells, gridCell{j, i})
		}
	}
	err := pool.Run(workers, len(cells), func(c int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := &jobs[cells[c].job]
		n := job.Procs[cells[c].pt]
		total, err := cellTime(ctx, cache, job, n)
		if err != nil {
			return err
		}
		points[cells[c].job][cells[c].pt] = metrics.Point{Procs: n, Time: total}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// cellTime measures and compiles (through the memo cache) and
// simulates one cell, returning its exact predicted total.
func cellTime(ctx context.Context, cache *core.TraceCache, job *SweepJob, n int) (vtime.Time, error) {
	pred, err := predict(ctx, cache, job.Name, job.Size, job.Factory, n, job.Mode, job.Cfg)
	if err != nil {
		return 0, err
	}
	return pred.Result.TotalTime, nil
}

// predict compiles (through the memo cache) and replays one measurement
// under cfg.
func predict(ctx context.Context, cache *core.TraceCache, name string, size benchmarks.Size, f core.ProgramFactory, n int, mode pcxx.SizeMode, cfg sim.Config) (*core.Prediction, error) {
	mopts := core.MeasureOptions{SizeMode: mode}
	comp, err := cache.Compiled(ctx, cacheKey(name, size, n, mopts), func() (*trace.Trace, error) {
		return core.MeasureContext(ctx, f(n), mopts)
	})
	if err != nil {
		return nil, err
	}
	return comp.Extrapolate(ctx, cfg)
}

// runGridFitted answers each job's ladder through the analytic fitted
// path: the model package's refinement picks a sparse anchor set per
// job, anchors simulate exactly like sequential grid cells (same memo
// cache, same keys), and non-anchor cells evaluate the fit, rounded to
// whole virtual nanoseconds and clamped non-negative. Jobs fan across
// the worker pool; each job's refinement is serial and deterministic,
// so the assembled output is byte-identical at any worker count.
func runGridFitted(ctx context.Context, cache *core.TraceCache, workers int, jobs []SweepJob) ([][]metrics.Point, error) {
	points := make([][]metrics.Point, len(jobs))
	err := pool.Run(workers, len(jobs), func(j int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		job := &jobs[j]
		sim := func(ctx context.Context, n int) ([]vtime.Time, error) {
			t, err := cellTime(ctx, cache, job, n)
			if err != nil {
				return nil, err
			}
			return []vtime.Time{t}, nil
		}
		res, err := model.Run(ctx, job.Procs, 1, sim, model.Options{})
		if err != nil {
			return err
		}
		points[j] = make([]metrics.Point, len(job.Procs))
		for i, p := range res.Curves[0].Points {
			if p.Simulated {
				points[j][i] = metrics.Point{Procs: p.Procs, Time: p.Exact}
				continue
			}
			v := math.Round(p.Value)
			if v < 0 {
				v = 0
			}
			points[j][i] = metrics.Point{Procs: p.Procs, Time: vtime.Time(v)}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}
