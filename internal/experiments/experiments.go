// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 4), each regenerating the corresponding
// rows/series from scratch: measurement runs, trace translation, and
// trace-driven simulation with the experiment's parameter set. The
// drivers are used by the CLI (`extrap experiment <id>`), by the
// root-level benchmark harness, and by EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"extrap/internal/benchmarks"
	"extrap/internal/core"
	"extrap/internal/metrics"
	"extrap/internal/report"
)

// Options controls an experiment run.
type Options struct {
	// Procs is the processor ladder; nil means the paper's
	// {1, 2, 4, 8, 16, 32}.
	Procs []int
	// Quick shrinks problem sizes and the ladder for fast smoke runs
	// (used by tests); results keep their shape but not their magnitude.
	Quick bool
	// Workers bounds the goroutines used for an experiment's measurement
	// and simulation grid: ≤ 0 means GOMAXPROCS, 1 runs sequentially.
	// Any value produces identical Output — measurement is deterministic
	// and results are assembled in a fixed order.
	Workers int
	// Backend, when non-nil, is a durable tier behind the run's memo
	// cache (typically a *store.Store): measurements missing from memory
	// are looked up on disk before being re-run, and fresh measurements
	// are written through. Repeated runs against the same store replay
	// at disk speed; results are byte-identical either way.
	Backend core.TraceBackend
	// FitMode selects how grids produce their ladder cells: "" or
	// "exact" simulates every cell; "fitted" simulates only the sparse
	// anchor set the model package's refinement selects and evaluates
	// the analytic fit for the rest (rounded to whole virtual
	// nanoseconds). Fitted output trades exactness on non-anchor cells
	// for a fraction of the simulation work; anchor cells stay exact.
	FitMode string
}

func (o Options) procs() []int {
	if o.Procs != nil {
		return o.Procs
	}
	if o.Quick {
		return []int{1, 2, 4, 8}
	}
	return core.DefaultProcCounts()
}

// size returns the benchmark size for this run.
func (o Options) size(b benchmarks.Benchmark) benchmarks.Size {
	if !o.Quick {
		return b.DefaultSize()
	}
	switch b.Name() {
	case "embar":
		return benchmarks.Size{N: 13}
	case "cyclic":
		return benchmarks.Size{N: 256, Iters: 8}
	case "sparse":
		return benchmarks.Size{N: 128, Iters: 6}
	case "grid":
		return benchmarks.Size{N: 24, Iters: 40}
	case "mgrid":
		return benchmarks.Size{N: 32, Iters: 2}
	case "poisson":
		return benchmarks.Size{N: 24}
	case "sort":
		return benchmarks.Size{N: 1024}
	case "matmul":
		return benchmarks.Size{N: 12}
	}
	return b.DefaultSize()
}

// Output is an experiment's rendered result set.
type Output struct {
	ID      string
	Title   string
	Tables  []report.Table
	Figures []report.Figure
}

// Render writes every table and figure.
func (o *Output) Render(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n\n", o.ID, o.Title)
	for i := range o.Tables {
		o.Tables[i].Render(w)
	}
	for i := range o.Figures {
		o.Figures[i].Render(w)
	}
}

// Experiment is one registered driver.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) (*Output, error)
}

var (
	registry []Experiment
	regOnce  sync.Once
	regIDs   []string
	regIndex map[string]int
)

func register(e Experiment) { registry = append(registry, e) }

// indexRegistry sorts the registry and builds the id list and lookup map
// exactly once (registration only happens from init functions, so by the
// first lookup the set is final).
func indexRegistry() {
	sort.Slice(registry, func(i, j int) bool { return registry[i].ID < registry[j].ID })
	regIDs = make([]string, len(registry))
	regIndex = make(map[string]int, len(registry))
	for i, e := range registry {
		regIDs[i] = e.ID
		regIndex[e.ID] = i
	}
}

// All returns the registered experiments sorted by id.
func All() []Experiment {
	regOnce.Do(indexRegistry)
	return append([]Experiment(nil), registry...)
}

// ByID returns the driver for an experiment id.
func ByID(id string) (Experiment, error) {
	regOnce.Do(indexRegistry)
	if i, ok := regIndex[id]; ok {
		return registry[i], nil
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, ids())
}

func ids() []string {
	regOnce.Do(indexRegistry)
	return regIDs
}

// times extracts the execution times (ms) of a point series.
func times(points []metrics.Point) []float64 {
	out := make([]float64, len(points))
	for i, p := range points {
		out[i] = p.Time.Millis()
	}
	return out
}
