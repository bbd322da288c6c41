package experiments

import (
	"context"
	"fmt"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/pcxx"
	"extrap/internal/sim"
)

// Service is the experiment engine packaged as a long-lived component:
// a shared measurement memo cache plus the grid runner, reusable across
// many independent requests instead of one experiment run. It backs the
// `extrap serve` HTTP API — every prediction the API returns goes
// through exactly the pipeline the paper's experiments use, and
// repeated requests for the same (benchmark, size, threads) share one
// measurement and one compile through the cache.
//
// A Service is safe for concurrent use.
type Service struct {
	cache   *core.TraceCache
	workers int
}

// NewService returns a Service whose sweeps fan out over at most
// workers goroutines (≤ 0 selects GOMAXPROCS) and whose memo cache
// retains at most cacheEntries measurements as compact XTRP2 bytes,
// evicting least-recently-used beyond that (≤ 0 means unbounded — only
// appropriate for fixed key populations, never for a server fed
// client-controlled parameters), plus a heap-byte-budgeted hot set of
// compiled traces (core.CompiledBudget). maxTraceBytes (> 0) rejects
// any measurement whose encoding exceeds the budget with
// core.ErrTraceTooLarge.
func NewService(workers, cacheEntries int, maxTraceBytes int64) *Service {
	return &Service{cache: core.NewTraceCache(cacheEntries, maxTraceBytes), workers: workers}
}

// CacheStats reports the memo cache's lookup effectiveness: lookups
// that found the measurement already taken (in memory or in the
// durable backend) and measurement runs performed.
func (s *Service) CacheStats() (hits, misses int64) { return s.cache.Stats() }

// CompiledStats reports the memo cache's compiled tier: lookups it
// served, compiles it ran, and the heap bytes and entries it holds.
func (s *Service) CompiledStats() core.CompiledStats { return s.cache.CompiledStats() }

// SetBackend attaches a durable tier (typically a *store.Store) behind
// the Service's memo cache: memory misses consult the backend before
// re-measuring and fresh measurements are written through, so a
// restarted service replays prior work at disk speed. Attach before the
// Service starts handling requests; results are byte-identical with or
// without a backend.
func (s *Service) SetBackend(b core.TraceBackend) { s.cache.SetBackend(b) }

// CompressionStats reports the raw (XTRP1-equivalent) and actual
// encoded bytes of measurements the cache has encoded so far.
func (s *Service) CompressionStats() core.CompressionStats { return s.cache.Compression() }

// Workers reports the sweep fan-out bound the Service was built with
// (≤ 0 means GOMAXPROCS), so composed components — notably the jobs
// queue — can match their cell parallelism to the engine's.
func (s *Service) Workers() int { return s.workers }

// Predict predicts one benchmark configuration on one target
// environment: measure (or reuse) the threads-thread trace, compile (or
// reuse) it, and simulate it under cfg, returning the scalar
// prediction. The context bounds every stage, including the measurement
// (polled at safe points in the runtime). A measurement aborted by the
// caller's deadline is not memoized — the error goes to that caller
// alone and the next request re-measures under its own deadline — so a
// timeout never poisons the cache.
func (s *Service) Predict(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfg sim.Config) (*core.Prediction, error) {
	if threads <= 0 {
		return nil, fmt.Errorf("experiments: invalid thread count %d", threads)
	}
	return predict(ctx, s.cache, b.Name(), size, b.Factory(size), threads, mode, cfg)
}

// PredictEach answers one prediction per config against a single
// shared measurement, in config order. Each prediction is Predict's for
// that config, byte for byte.
func (s *Service) PredictEach(ctx context.Context, b benchmarks.Benchmark, size benchmarks.Size, threads int, mode pcxx.SizeMode, cfgs []sim.Config) ([]*core.Prediction, error) {
	out := make([]*core.Prediction, len(cfgs))
	for i, cfg := range cfgs {
		var err error
		if out[i], err = s.Predict(ctx, b, size, threads, mode, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Sweep runs one processor-ladder sweep job through the shared cache and
// worker pool, returning the scaling series in ladder order. Output is
// byte-identical at any worker count (the grid runner's invariant).
func (s *Service) Sweep(ctx context.Context, job SweepJob) ([]metrics.Point, error) {
	series, err := s.SweepGrid(ctx, []SweepJob{job})
	if err != nil {
		return nil, err
	}
	return series[0], nil
}

// SweepGrid runs several sweep jobs as one grid, returning one series
// per job in job order. Output is byte-identical to running the jobs
// one at a time, at any worker count.
func (s *Service) SweepGrid(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	return runGrid(ctx, s.cache, s.workers, jobs)
}

// SweepGridFitted answers each job's ladder through the analytic fitted
// path: only the sparse anchor set the model package's refinement
// selects is simulated (through the same cache and memoization as
// SweepGrid), and the remaining cells evaluate the least-squares fit,
// rounded to whole virtual nanoseconds. Anchor cells carry the exact
// simulated time; fitted cells are approximations. Output is
// deterministic and byte-identical at any worker count.
func (s *Service) SweepGridFitted(ctx context.Context, jobs []SweepJob) ([][]metrics.Point, error) {
	return runGridFitted(ctx, s.cache, s.workers, jobs)
}
