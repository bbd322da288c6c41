package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"

	"extrap/internal/compose"
	"extrap/internal/serve"
)

// Workload names. Each is a traffic mix of POST /v1/sweep requests; see
// README.md for why each exists and which layer it isolates.
const (
	wlCold   = "cold-sweep"
	wlWarm   = "warm-whatif"
	wlFitted = "fitted-dense"
)

var workloadNames = []string{wlCold, wlWarm, wlFitted}

// allMachines is every machine preset, the machines list of a warm
// what-if request.
var allMachines = []string{"cm5", "generic-dm", "ideal", "shared-mem"}

// defaultLadder is the server's default sweep ladder and the thread
// counts the warm-whatif setup measures.
var defaultLadder = []int{1, 2, 4, 8, 16, 32}

// request is one generated sweep request plus the facts the response
// checks need.
type request struct {
	Index int
	Body  []byte
	Sweep serve.SweepRequest
}

// Cells is the number of ladder cells a correct response carries.
func (r *request) Cells() int {
	ladder := len(r.Sweep.Procs)
	if ladder == 0 {
		ladder = len(defaultLadder)
	}
	curves := len(r.Sweep.Machines)
	if curves == 0 {
		curves = 1
	}
	return ladder * curves
}

// Fitted reports whether the request asks for the fitted mode.
func (r *request) Fitted() bool { return r.Sweep.Mode == "fitted" }

func newRequest(i int, sw serve.SweepRequest) request {
	return request{Index: i, Body: mustMarshal(sw), Sweep: sw}
}

// rngFor seeds a generator from the workload seed and a stream name, so
// each workload draws an independent sequence.
func rngFor(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// generate returns the first n requests of a workload for a seed. The
// same (workload, seed, n) always yields the same requests.
func generate(workload string, seed uint64, n int) ([]request, error) {
	switch workload {
	case wlCold:
		return genCold(seed, n), nil
	case wlWarm:
		return genWarm(seed, n), nil
	case wlFitted:
		return genFitted(seed, n), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// suiteKernel is a suite benchmark with the (size, iters) pairs its
// cold requests draw from. Every pair is near the benchmark's defaults
// and does about the same work, so a run's latency mix does not hang on
// which pairs the seed drew:
//   - grid trades size against sweeps (work ∝ size² × sweeps, ±5%);
//   - mgrid stays below size 64, where XTRP2 mining of the 64×64 trace
//     costs three times the neighbouring sizes;
//   - sparse keeps 20 CG iterations and varies the rows by ±3%;
//   - cyclic rounds its size up to a power of two and poisson and embar
//     ignore the iteration count, so their pairs all do the default
//     work while still naming distinct measurements.
//
// Each kernel has at least coldBlocks pairs per slot it holds in a
// block, so no run repeats a measurement.
type suiteKernel struct {
	name  string
	pairs [][2]int
}

func pairs(sizes, iters []int) [][2]int {
	var out [][2]int
	for _, s := range sizes {
		for _, it := range iters {
			out = append(out, [2]int{s, it})
		}
	}
	return out
}

func intRange(lo, hi int) []int {
	var out []int
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

var coldKernels = []suiteKernel{
	{name: "sparse", pairs: pairs(intRange(1984, 2112), []int{20})},
	{name: "grid", pairs: append(append(pairs([]int{62}, intRange(334, 348)),
		pairs([]int{64}, intRange(312, 336))...), pairs([]int{66}, intRange(294, 316))...)},
	{name: "mgrid", pairs: pairs(intRange(52, 63), []int{3, 4, 5})},
	{name: "cyclic", pairs: pairs(intRange(961, 1024), []int{32})},
	{name: "poisson", pairs: pairs([]int{48}, intRange(1, 64))},
	{name: "embar", pairs: pairs([]int{17}, intRange(1, 64))},
}

// coldSlots is one block of the cold mix: half suite kernels (sparse
// twice, so the p90 latency falls inside its group rather than on the
// edge between two kernels) and half composed specs (-1). Each block
// sends every slot once, in a seed-shuffled order, so every seed sends
// the same mix.
var coldSlots = []int{0, 0, 1, 2, 3, 4, 5, -1, -1, -1, -1, -1, -1, -1}

// coldBlocks bounds a cold run: it draws at most this many blocks.
const coldBlocks = 30

// coldSpecEvents bands the estimated event volume of a cold composed
// spec, summed over the default ladder, so composed requests cost about
// the same as each other.
var coldSpecEvents = [2]int64{40_000, 60_000}

// genCold draws cold-sweep requests: exact single-machine sweeps over
// the default ladder, each of a (program, size, iters) the server has
// never seen. The k-th request of a kernel takes the k-th entry of a
// seed-shuffled list of its pairs; composed specs are redrawn until
// their derived names are new.
func genCold(seed uint64, n int) []request {
	rng := rngFor(seed, wlCold)
	lists := make([][][2]int, len(coldKernels))
	used := make([]int, len(coldKernels))
	for k, kn := range coldKernels {
		lists[k] = slices.Clone(kn.pairs)
		rng.Shuffle(len(lists[k]), func(i, j int) { lists[k][i], lists[k][j] = lists[k][j], lists[k][i] })
	}
	seen := map[string]bool{}
	var out []request
	var order []int
	for i := 0; i < n; i++ {
		if i%len(coldSlots) == 0 {
			order = rng.Perm(len(coldSlots))
		}
		slot := coldSlots[order[i%len(coldSlots)]]
		sw := serve.SweepRequest{Machine: allMachines[rng.IntN(len(allMachines))]}
		if slot >= 0 {
			p := lists[slot][used[slot]%len(lists[slot])]
			used[slot]++
			sw.Benchmark, sw.Size, sw.Iters = coldKernels[slot].name, p[0], p[1]
		} else {
			sw.Workload = uniqueSpec(rng, seen, defaultLadder, coldSpecEvents)
		}
		out = append(out, newRequest(i, sw))
	}
	return out
}

// uniqueSpec draws a composed spec whose derived name is new and whose
// estimated event volume, summed over the thread counts in probe, lies
// in band. The tree is drawn first; its iteration count then scales the
// volume into the band.
func uniqueSpec(rng *rand.Rand, seen map[string]bool, probe []int, band [2]int64) json.RawMessage {
	for {
		sp := compose.Spec{Size: 8 << rng.IntN(3), Iters: 1, Root: genComposite(rng, 2+rng.IntN(3), true)}
		w, err := compose.FromJSON(mustMarshal(sp))
		if err != nil {
			panic(fmt.Sprintf("generated spec is invalid: %v", err))
		}
		per := specEvents(w, probe)
		sp.Iters = int((band[0] + band[1]) / 2 / per)
		if sp.Iters < 1 || sp.Iters > 8 {
			continue
		}
		raw := mustMarshal(sp)
		if w, err = compose.FromJSON(raw); err != nil {
			panic(fmt.Sprintf("generated spec is invalid: %v: %s", err, raw))
		}
		if ev := specEvents(w, probe); ev < band[0] || ev > band[1] || seen[w.Name()] {
			continue
		}
		seen[w.Name()] = true
		return raw
	}
}

// specEvents is a workload's estimated event volume summed over the
// thread counts in probe.
func specEvents(w *compose.Workload, probe []int) int64 {
	var ev int64
	for _, n := range probe {
		ev += w.WorkUnits(w.DefaultSize(), n)
	}
	return ev
}

func mustMarshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshaled
	}
	return raw
}

func genComposite(rng *rand.Rand, children int, nest bool) compose.Node {
	var kids []compose.Node
	for c := 0; c < children; c++ {
		if nest && rng.IntN(4) == 0 {
			kids = append(kids, genComposite(rng, 2, false))
		} else {
			kids = append(kids, genLeaf(rng))
		}
	}
	if rng.IntN(2) == 0 {
		return compose.Node{Kind: compose.KindSeq, Children: kids}
	}
	return compose.Node{Kind: compose.KindPipeline, Stages: kids, MessageBytes: 8 << rng.IntN(5)}
}

func genLeaf(rng *rand.Rand) compose.Node {
	n := compose.Node{Grain: 1 + rng.IntN(16)}
	switch rng.IntN(4) {
	case 0:
		n.Kind = compose.KindBSP
		n.Supersteps = 2 + rng.IntN(7)
		n.MessageBytes = 8 << rng.IntN(7)
	case 1:
		n.Kind = compose.KindTaskFarm
		n.Tasks = 32 << rng.IntN(4)
		n.Imbalance = float64(rng.IntN(5)) / 4
	case 2:
		n.Kind = compose.KindStencil
		n.Width = 16 << rng.IntN(3)
		if rng.IntN(2) == 0 {
			n.Height = 4 << rng.IntN(4)
		}
		n.Sweeps = 2 + rng.IntN(5)
		n.MessageBytes = 8 << rng.IntN(5)
	default:
		n.Kind = compose.KindReduction
		n.Op = compose.OpTree
		if rng.IntN(3) == 0 {
			n.Op = compose.OpFlat
		}
	}
	return n
}

// warmProgram is one program the warm-whatif setup measures at every
// default-ladder thread count.
type warmProgram struct {
	Benchmark string
	Size      int
	Workload  json.RawMessage
}

// warmPrograms is the fixed warm set: suite kernels (sparse at half its
// default size to bound the setup), two registered compose presets and
// one inline composed spec.
var warmPrograms = []warmProgram{
	{Benchmark: "grid"},
	{Benchmark: "mgrid"},
	{Benchmark: "sparse", Size: 1024},
	{Benchmark: "cyclic"},
	{Benchmark: "poisson"},
	{Benchmark: "pipeline8"},
	{Benchmark: "farm-stencil"},
	{Workload: json.RawMessage(`{"size":8,"iters":2,"root":{"kind":"pipeline","message_bytes":32,"stages":[` +
		`{"kind":"task_farm","tasks":24,"grain":4,"imbalance":0.5},` +
		`{"kind":"stencil","width":12,"height":8,"sweeps":2,"grain":2},` +
		`{"kind":"seq","children":[{"kind":"bsp","supersteps":2,"message_bytes":64},{"kind":"reduction","op":"tree"}]}]}}`)},
}

// warmupRequests are the setup requests of warm-whatif: one exact
// single-machine sweep over the default ladder per warm program, which
// measures and caches every thread count the timed requests use.
func warmupRequests() []request {
	out := make([]request, len(warmPrograms))
	for i, p := range warmPrograms {
		out[i] = newRequest(i, serve.SweepRequest{
			Benchmark: p.Benchmark, Size: p.Size, Workload: p.Workload, Machine: "ideal",
		})
	}
	return out
}

// genWarm draws warm-whatif requests: exact sweeps of a warm program
// over all machine presets, on a ladder of two or more warmed thread
// counts. The (program, ladder) pairs form a fixed set — every warm
// program with every such ladder — which each seed sends in its own
// shuffled order, a fresh shuffle per pass over the set, so every seed
// sends the same mix.
func genWarm(seed uint64, n int) []request {
	rng := rngFor(seed, wlWarm)
	var ladders [][]int
	for mask := 0; mask < 1<<len(defaultLadder); mask++ {
		var l []int
		for i, p := range defaultLadder {
			if mask&(1<<i) != 0 {
				l = append(l, p)
			}
		}
		if len(l) >= 2 {
			ladders = append(ladders, l)
		}
	}
	combos := len(warmPrograms) * len(ladders)
	var out []request
	var order []int
	for i := 0; i < n; i++ {
		if i%combos == 0 {
			order = rng.Perm(combos)
		}
		c := order[i%combos]
		p := warmPrograms[c%len(warmPrograms)]
		out = append(out, newRequest(i, serve.SweepRequest{
			Benchmark: p.Benchmark, Size: p.Size, Workload: p.Workload,
			Machines: allMachines, Procs: ladders[c/len(warmPrograms)],
		}))
	}
	return out
}

// fittedProbe and fittedSpecEvents band the estimated event volume of a
// fitted spec at thread counts where anchors fall.
var (
	fittedProbe      = []int{12, 24, 36, 48}
	fittedSpecEvents = [2]int64{30_000, 45_000}
)

// genFitted draws fitted-dense requests: fitted sweeps of never-seen
// composed specs on two machines over a dense ladder, 1 up to a top in
// [40, 48], with about a third of the interior points dropped.
func genFitted(seed uint64, n int) []request {
	rng := rngFor(seed, wlFitted)
	seen := map[string]bool{}
	var out []request
	for i := 0; i < n; i++ {
		top := 40 + rng.IntN(9)
		ladder := []int{1}
		for p := 2; p < top; p++ {
			if rng.IntN(3) != 0 {
				ladder = append(ladder, p)
			}
		}
		ladder = append(ladder, top)
		m := rng.Perm(len(allMachines))[:2]
		out = append(out, newRequest(i, serve.SweepRequest{
			Workload: uniqueSpec(rng, seen, fittedProbe, fittedSpecEvents),
			Machines: []string{allMachines[m[0]], allMachines[m[1]]},
			Procs:    ladder,
			Mode:     "fitted",
		}))
	}
	return out
}
