package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/experiments"
	"extrap/internal/machine"
	"extrap/internal/metrics"
	"extrap/internal/model"
	"extrap/internal/pcxx"
	"extrap/internal/serve"
	"extrap/internal/sim"
	"extrap/internal/store"
	"extrap/internal/trace"
	"extrap/internal/translate"
	"extrap/internal/vtime"
)

// replayer answers sweep requests by calling the layers' public
// functions in the order a default `extrap serve` does — trace cache
// lookup, durable store, measurement, XTRP2 encoding, pattern decode,
// streaming translation, simulation and, for fitted sweeps, the model —
// with a span around every layer call. It runs on one goroutine, so
// spans nest without locks; the server fans ladder cells across its
// workers instead, which changes wall time but not the work done.
type replayer struct {
	tr    *tracer
	store *store.Store
	mem   map[core.CacheKey][]byte // the trace cache: encoded XTRP2 bytes
	work  replayWork
}

// replayWork counts the work the layers did, summed over requests.
type replayWork struct {
	events       int64 // measured events
	rawBytes     int64 // flat-encoding size of measured traces
	xtrp2Bytes   int64 // XTRP2 size of the same traces
	bytesWritten int64 // payload bytes put to the store
	cells        int64 // simulated cells
	anchors      int64 // fitted-mode simulated ladder points
	fittedPoints int64 // fitted-mode ladder points
}

func newReplayer(tr *tracer, storeDir string) (*replayer, error) {
	st, err := store.Open(storeDir, 0)
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, store: st, mem: map[core.CacheKey][]byte{}}, nil
}

func (r *replayer) close() { r.store.Close() }

// program resolves a request's program and size the way the API does:
// a suite name or an inline spec, defaults for zero fields, no verify.
func program(sw *serve.SweepRequest) (benchmarks.Benchmark, benchmarks.Size, error) {
	var b benchmarks.Benchmark
	var err error
	if len(sw.Workload) > 0 {
		b, err = compose.FromJSON(sw.Workload)
	} else {
		b, err = benchmarks.ByName(sw.Benchmark)
	}
	if err != nil {
		return nil, benchmarks.Size{}, err
	}
	sz := b.DefaultSize()
	if sw.Size > 0 {
		sz.N = sw.Size
	}
	if sw.Iters > 0 {
		sz.Iters = sw.Iters
	}
	sz.Verify = false
	return b, sz, nil
}

// encoded returns the XTRP2 trace of (b, sz, n): from memory, else from
// the store, else measured, encoded and written through.
func (r *replayer) encoded(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, n int) ([]byte, error) {
	mopts := core.MeasureOptions{SizeMode: pcxx.ActualSize}
	key := experiments.MeasurementKey(b.Name(), sz, n, mopts)
	if enc, ok := r.mem[key]; ok {
		return enc, nil
	}
	var enc []byte
	var hit bool
	r.tr.do("store", func() error {
		// Like the server's cache, fall back to a legacy XTRP1 artifact.
		if enc, hit = r.store.GetTrace(key, trace.FormatXTRP2); !hit {
			enc, hit = r.store.GetTrace(key, trace.FormatXTRP1)
		}
		return nil
	})
	if !hit {
		var tr *trace.Trace
		err := r.tr.do("measure", func() (err error) {
			tr, err = core.MeasureContext(ctx, b.Factory(sz)(n), mopts)
			return err
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := r.tr.do("encode", func() error { return trace.WriteBinary2(&buf, tr) }); err != nil {
			return nil, err
		}
		enc = buf.Bytes()
		r.work.events += int64(len(tr.Events))
		r.work.rawBytes += trace.EncodedSize(tr.Header(), len(tr.Events))
		r.work.xtrp2Bytes += int64(len(enc))
		r.tr.do("store", func() error {
			r.store.PutTrace(key, trace.FormatXTRP2, enc)
			return nil
		})
		r.work.bytesWritten += int64(len(enc))
	}
	r.mem[key] = enc
	return enc, nil
}

// predict replays one encoded trace on one machine — the pipeline of
// core.ExtrapolateEncoded under pattern replay, one span per stage.
func (r *replayer) predict(ctx context.Context, enc []byte, cfg sim.Config) (vtime.Time, error) {
	var ps *trace.PatternSource
	if err := r.tr.do("decode", func() (err error) {
		ps, err = trace.NewPatternSource(enc)
		return err
	}); err != nil {
		return 0, err
	}
	var s *translate.Stream
	if err := r.tr.do("translate", func() (err error) {
		s, err = translate.NewStream(ps.Header(), ps, translate.StreamOptions{})
		return err
	}); err != nil {
		return 0, err
	}
	var res *sim.Result
	if err := r.tr.do("simulate", func() (err error) {
		if res, err = sim.SimulateStreamContext(ctx, s, cfg); err != nil {
			return err
		}
		return s.Drain()
	}); err != nil {
		return 0, err
	}
	r.work.cells++
	return res.TotalTime, nil
}

// cell measures (or reuses) the trace at n threads and predicts it on
// every machine, in machine order.
func (r *replayer) cell(ctx context.Context, b benchmarks.Benchmark, sz benchmarks.Size, n int, envs []machine.Env) ([]vtime.Time, error) {
	enc, err := r.encoded(ctx, b, sz, n)
	if err != nil {
		return nil, err
	}
	out := make([]vtime.Time, len(envs))
	for i, env := range envs {
		if out[i], err = r.predict(ctx, enc, env.Config); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep answers one request and renders the response body the server
// would send for it.
func (r *replayer) sweep(ctx context.Context, req *request) ([]byte, error) {
	sw := &req.Sweep
	r.tr.req = req.Index
	defer r.tr.end(r.tr.begin("request"))
	b, sz, err := program(sw)
	if err != nil {
		return nil, err
	}
	names := sw.Machines
	if len(names) == 0 {
		names = []string{sw.Machine}
	}
	envs := make([]machine.Env, len(names))
	for i, name := range names {
		if envs[i], err = machine.ByName(name); err != nil {
			return nil, err
		}
	}
	ladder := sw.Procs
	if len(ladder) == 0 {
		ladder = defaultLadder
	}
	curves := make([]serve.SweepCurve, len(envs))
	if req.Fitted() {
		var res *model.Result
		simulate := func(ctx context.Context, procs int) ([]vtime.Time, error) {
			r.work.anchors++
			return r.cell(ctx, b, sz, procs, envs)
		}
		if err := r.tr.do("fit", func() (err error) {
			res, err = model.Run(ctx, ladder, len(envs), simulate, model.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		r.work.fittedPoints += int64(len(ladder))
		for i, env := range envs {
			curves[i] = fittedCurve(env.Name, res, i)
		}
	} else {
		series := make([][]metrics.Point, len(envs))
		for _, n := range ladder {
			ts, err := r.cell(ctx, b, sz, n, envs)
			if err != nil {
				return nil, err
			}
			for i, t := range ts {
				series[i] = append(series[i], metrics.Point{Procs: n, Time: t})
			}
		}
		for i, env := range envs {
			curves[i] = exactCurve(env.Name, series[i])
		}
	}
	return renderSweep(sw, b.Name(), sz, curves)
}

// exactCurve renders an exact series the way the API does.
func exactCurve(machineName string, pts []metrics.Point) serve.SweepCurve {
	speedups := metrics.Speedup(pts)
	effs := metrics.Efficiency(pts)
	c := serve.SweepCurve{Machine: machineName, Points: make([]serve.SweepPoint, len(pts))}
	for i, p := range pts {
		c.Points[i] = serve.SweepPoint{Procs: p.Procs, PredictedMs: p.Time.Millis(), Speedup: speedups[i], Efficiency: effs[i]}
	}
	return c
}

// fittedCurve renders curve ci of a fitted result the way the API does:
// anchors carry their exact simulated time, other cells the fit's value
// with a ± interval, and speedups are relative to the lowest-procs cell.
func fittedCurve(machineName string, res *model.Result, ci int) serve.SweepCurve {
	cf := res.Curves[ci]
	c := serve.SweepCurve{
		Machine: machineName,
		Points:  make([]serve.SweepPoint, len(cf.Points)),
		Fit: &serve.FitSummary{
			Basis:           model.BasisNames[:len(cf.Coeffs)],
			Coefficients:    cf.Coeffs,
			Anchors:         len(res.Anchors),
			Iterations:      res.Iterations,
			Converged:       res.Converged,
			Tolerance:       res.Tolerance,
			MaxRelResidual:  cf.MaxRelResidual,
			MeanRelResidual: cf.MeanRelResidual,
		},
	}
	base := cf.Points[0]
	for _, p := range cf.Points {
		if p.Procs < base.Procs {
			base = p
		}
	}
	for i, p := range cf.Points {
		sp := serve.SweepPoint{Procs: p.Procs, PredictedMs: p.Value / 1e6}
		iv := p.Interval / 1e6
		sp.IntervalMs = &iv
		if p.Simulated {
			sp.Source = "simulated"
			sp.PredictedMs = p.Exact.Millis()
		} else {
			sp.Source = "fitted"
		}
		if p.Value > 0 && base.Value > 0 {
			sp.Speedup = base.Value / p.Value * float64(base.Procs)
			sp.Efficiency = sp.Speedup / float64(p.Procs)
		}
		c.Points[i] = sp
	}
	return c
}

// renderSweep encodes the response shape the request selects, with the
// trailing newline the server writes.
func renderSweep(sw *serve.SweepRequest, bench string, sz benchmarks.Size, curves []serve.SweepCurve) ([]byte, error) {
	var v any
	if len(sw.Machines) == 0 {
		c := curves[0]
		v = serve.SweepResponse{Benchmark: bench, Machine: c.Machine, Size: sz.N, Iters: sz.Iters,
			Mode: sw.Mode, Points: c.Points, Fit: c.Fit}
	} else {
		v = serve.MultiSweepResponse{Benchmark: bench, Size: sz.N, Iters: sz.Iters, Mode: sw.Mode, Curves: curves}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// replayResult is one pass of the traced replay.
type replayResult struct {
	bodies  [][]byte
	spans   []span
	work    replayWork
	elapsed time.Duration
}

// runReplay answers warmup and then reqs on a fresh replayer and store.
// Warm-up spans carry request id -1 and are left out of every sum.
func runReplay(ctx context.Context, workdir string, traced bool, warmup, reqs []request) (*replayResult, error) {
	dir, err := os.MkdirTemp(workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer(traced)
	r, err := newReplayer(tr, dir)
	if err != nil {
		return nil, err
	}
	defer r.close()
	for i := range warmup {
		w := warmup[i]
		w.Index = -1
		if _, err := r.sweep(ctx, &w); err != nil {
			return nil, fmt.Errorf("replaying warm-up request %d: %v", i, err)
		}
	}
	r.work = replayWork{} // count the timed requests only
	out := &replayResult{}
	start := time.Now()
	for i := range reqs {
		body, err := r.sweep(ctx, &reqs[i])
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %v", reqs[i].Index, err)
		}
		out.bodies = append(out.bodies, body)
	}
	out.elapsed = time.Since(start)
	out.spans = tr.spans
	out.work = r.work
	return out, nil
}
