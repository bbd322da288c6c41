package core

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"extrap/internal/metrics"
	"extrap/internal/pool"
	"extrap/internal/sim"
	"extrap/internal/trace"
	"extrap/internal/translate"
)

// ParallelSweep is the concurrent form of SweepProcs: it measures and
// extrapolates every processor count of the ladder across at most
// workers goroutines (≤ 0 selects GOMAXPROCS). Results land in ladder
// order and errors surface exactly as the sequential sweep would report
// them, so any worker count produces identical output — measurement is
// deterministic (fixed seed) and each point's pipeline is independent.
func ParallelSweep(f ProgramFactory, opts MeasureOptions, cfg sim.Config, procCounts []int, workers int) ([]metrics.Point, error) {
	return ParallelSweepContext(context.Background(), f, opts, cfg, procCounts, workers)
}

// ParallelSweepContext is ParallelSweep under a caller deadline: each
// ladder point checks the context before starting and threads it through
// its measure/translate/simulate pipeline, so one cancellation abandons
// the whole sweep.
func ParallelSweepContext(ctx context.Context, f ProgramFactory, opts MeasureOptions, cfg sim.Config, procCounts []int, workers int) ([]metrics.Point, error) {
	points := make([]metrics.Point, len(procCounts))
	err := pool.Run(workers, len(procCounts), func(i int) error {
		n := procCounts[i]
		out, err := RunContext(ctx, f(n), opts, cfg)
		if err != nil {
			return fmt.Errorf("core: sweep at %d procs: %w", n, err)
		}
		points[i] = metrics.Point{Procs: n, Time: out.Result.TotalTime}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// CacheKey identifies one deterministic measurement run for memoization:
// the program (benchmark name plus any variant tag), its size
// parameters, the thread count, and the full measurement options. Two
// runs with equal keys produce byte-identical traces because the
// measurement runtime is seeded deterministically and programs take no
// other input.
type CacheKey struct {
	// Bench names the program; include any variant parameters that
	// change the program's behavior (e.g. a matmul distribution pair).
	Bench string
	// N and Iters are the problem-size parameters.
	N, Iters int
	// Verify records whether result verification ran (it changes the
	// instruction stream, hence the trace).
	Verify bool
	// Threads is the measured thread count.
	Threads int
	// Opts is the full measurement configuration.
	Opts MeasureOptions
}

// cacheEntry holds one memoized measurement as immutable encoded bytes
// (aliasing between concurrent consumers is impossible by
// construction), guarded by its own mutex so concurrent requests for
// the same key share one measurement run and one compile (singleflight)
// while requests for other keys proceed independently. comp is the
// entry's place in the compiled tier, guarded by the cache's mutex.
type cacheEntry struct {
	mu       sync.Mutex
	measured bool
	enc      []byte
	err      error
	comp     *Compiled
}

// lruNode is what the recency list holds: the key (for map removal on
// eviction) and its entry.
type lruNode struct {
	key CacheKey
	e   *cacheEntry
}

// TraceBackend is a durable tier behind a TraceCache: measurements the
// memory cache does not hold are looked up here (as encoded trace bytes
// in the named format) before being re-measured, and fresh measurements
// are written through. internal/store implements it with a
// content-addressed on-disk store, keying each format separately
// (CacheKey.CanonicalFormat) so XTRP1 and XTRP2 artifacts of one
// measurement coexist.
//
// Both methods must be safe for concurrent use. GetTrace returns
// (payload, true) only for bytes it can vouch for (the store verifies
// checksums and treats corruption as a miss); PutTrace is best-effort —
// a write failure loses durability, never correctness, so it reports
// nothing here and is counted by the implementation instead.
type TraceBackend interface {
	GetTrace(key CacheKey, format trace.Format) ([]byte, bool)
	PutTrace(key CacheKey, format trace.Format, enc []byte)
}

// CompiledBudget bounds the heap bytes of the compiled traces a
// TraceCache keeps (see Compiled.Size). It covers the hot set every
// workload replays repeatedly — the default experiment grids, a warm
// what-if set, one dense fitted ladder — while bounding what a stream of
// never-repeated measurements can pin.
const CompiledBudget = 3 << 19 // 1.5 MiB

// TraceCache memoizes measurements across the cells of parameter grids
// and the requests of a server. Grids vary only the simulation Config
// between cells, so each distinct measurement runs once and is then
// simulated under every configuration.
//
// It keeps two tiers of one entry per measurement. Every entry holds
// the measurement's XTRP2 bytes: that is what is measured into,
// written through to a durable backend, and evicted by entry count. A
// hot set of entries also holds the Compiled form — parsed and
// translated once — which every replay of the measurement shares; that
// tier is bounded by CompiledBudget heap bytes and recompiles from the
// bytes after eviction.
//
// A TraceCache is safe for concurrent use.
type TraceCache struct {
	mu      sync.Mutex
	max     int
	maxB    int64 // per-trace encoded-size budget (0 = unlimited)
	entries map[CacheKey]*list.Element
	order   *list.List // front = most recently used; values are *lruNode
	// flights tracks entries whose first measurement is still running,
	// keyed independently of the LRU so eviction pressure cannot detach
	// concurrent requests from an in-progress measurement (see entry).
	flights map[CacheKey]*cacheEntry
	// The compiled tier: how many entries hold a Compiled, their summed
	// Compiled.Size, and its bound. It evicts in the entries' own
	// recency order.
	compEntries int64
	compBytes   int64
	compBudget  int64
	backend     TraceBackend
	lookups     atomic.Int64
	misses      atomic.Int64
	compHits    atomic.Int64
	compiles    atomic.Int64
	// Compression accounting across fresh encodes: rawBytes is what the
	// flat XTRP1 encoding would have cost, encBytes what XTRP2 actually
	// cost.
	rawBytes atomic.Int64
	encBytes atomic.Int64
}

// ErrTraceTooLarge reports a measurement whose encoded size exceeds a
// cache's per-trace budget. Serving layers map it to a
// payload-too-large response.
var ErrTraceTooLarge = errors.New("core: measured trace exceeds the trace size budget")

// NewTraceCache returns a cache holding at most maxEntries distinct
// measurements, evicting the least recently used beyond that
// (maxEntries ≤ 0 means unbounded — the right shape for a one-shot
// experiment run, whose key population is fixed by the grid). Long-lived
// serving paths must use a bound: cache keys derive from
// client-controlled request parameters, so an unbounded cache lets a
// client iterating sizes grow server memory without limit.
// maxTraceBytes (> 0) rejects any measurement whose XTRP2 encoding
// exceeds it with ErrTraceTooLarge.
func NewTraceCache(maxEntries int, maxTraceBytes int64) *TraceCache {
	return &TraceCache{
		max:        maxEntries,
		maxB:       maxTraceBytes,
		entries:    make(map[CacheKey]*list.Element),
		order:      list.New(),
		flights:    make(map[CacheKey]*cacheEntry),
		compBudget: CompiledBudget,
	}
}

// SetBackend attaches a durable tier behind the memory cache: misses
// consult the backend before re-measuring, and fresh measurements are
// written through as XTRP2. Attach the backend before the cache is
// shared across goroutines (typically right after construction); it
// must not change while lookups are running.
func (c *TraceCache) SetBackend(b TraceBackend) { c.backend = b }

// CompressionStats reports the cache's encoding economics across fresh
// measurements: RawBytes is what the flat 37-byte-per-event XTRP1
// encoding would occupy, EncodedBytes what XTRP2 actually produced.
// Backend hits are excluded (their raw size is unknown without a
// decode).
type CompressionStats struct {
	RawBytes     int64
	EncodedBytes int64
}

// Compression returns the cache's compression accounting.
func (c *TraceCache) Compression() CompressionStats {
	return CompressionStats{RawBytes: c.rawBytes.Load(), EncodedBytes: c.encBytes.Load()}
}

// backendGet looks the key up in the durable tier under XTRP2, falling
// back to the XTRP1 key so stores written before the format migration
// keep their value: decode auto-detects by magic, so fallback bytes are
// served as-is.
func (c *TraceCache) backendGet(key CacheKey) ([]byte, bool) {
	if enc, ok := c.backend.GetTrace(key, trace.FormatXTRP2); ok {
		return enc, true
	}
	return c.backend.GetTrace(key, trace.FormatXTRP1)
}

// entry returns (creating if needed) the entry for key, refreshing its
// recency and evicting the least recently used entry past the bound —
// its compiled form with it. An evicted entry stays valid for callers
// already holding it; its next lookup simply re-measures.
//
// Measurement is single-flight per key even under eviction pressure: a
// newly created entry is registered in c.flights until its first
// measurement attempt finishes (settle), so a concurrent request for the
// same key joins the in-progress run even if the LRU has already evicted
// the entry — without the flights map, N concurrent misses could run up
// to N identical measurements whenever churn on other keys pushes the
// shared entry out between their lookups.
func (c *TraceCache) entry(key CacheKey) *cacheEntry {
	c.lookups.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruNode).e
	}
	if e, ok := c.flights[key]; ok {
		return e
	}
	e := &cacheEntry{}
	c.flights[key] = e
	c.entries[key] = c.order.PushFront(&lruNode{key: key, e: e})
	if c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		n := oldest.Value.(*lruNode)
		delete(c.entries, n.key)
		c.dropCompiledLocked(n.e)
	}
	return e
}

// settle unregisters an entry's flight after its first measurement
// attempt completes — successfully, with a memoized failure, or with a
// non-memoized context abort (leaving an aborted flight registered would
// leak one map entry per never-retried key).
func (c *TraceCache) settle(key CacheKey, e *cacheEntry) {
	c.mu.Lock()
	if c.flights[key] == e {
		delete(c.flights, key)
	}
	c.mu.Unlock()
}

// Len reports the number of entries currently cached.
func (c *TraceCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// encodedLocked runs or reuses the memoized measurement; the caller
// holds e.mu. A configured backend is consulted before measuring (the
// stored artifact IS the encoded form, so a durable hit costs no decode
// at all), and fresh encodings are written through. The measured trace
// is immediately encoded and released — only the compact immutable
// bytes stay resident. When compiled is set, a fresh measurement is
// also compiled from the encoder's own pattern program or, when that
// cannot fast-forward, from the live trace — sparing a parse of the
// bytes just written. The returned Compiled is nil otherwise.
//
// Context cancellations are NOT memoized: an aborted measurement
// returns its error to that caller only, and the next caller re-runs
// the measurement under its own deadline — one impatient request never
// poisons the cache for everyone else. Deterministic failures (bad
// program, malformed trace) are memoized like successes, and so is a
// trace past the size budget, as an ErrTraceTooLarge failure (the
// measurement is deterministic, so it would exceed the budget every
// time) — including one arriving from the backend, whose encoded size
// is just as deterministic.
func (c *TraceCache) encodedLocked(ctx context.Context, key CacheKey, e *cacheEntry, measure func() (*trace.Trace, error), compiled bool) ([]byte, *Compiled, error) {
	if e.measured {
		return e.enc, nil, e.err
	}
	if c.backend != nil {
		if enc, ok := c.backendGet(key); ok {
			if c.maxB > 0 && int64(len(enc)) > c.maxB {
				e.err = fmt.Errorf("%w: %d encoded bytes, budget %d", ErrTraceTooLarge, len(enc), c.maxB)
			} else {
				e.enc = enc
			}
			e.measured = true
			c.settle(key, e)
			return e.enc, nil, e.err
		}
	}
	c.misses.Add(1)
	tr, err := measure()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		c.settle(key, e)
		return nil, nil, err
	}
	var ct *trace.CompiledTrace
	if err == nil {
		var enc []byte
		enc, ct, err = trace.EncodeCompiled(tr, sim.CanFastForward)
		if err == nil && c.maxB > 0 && int64(len(enc)) > c.maxB {
			err = fmt.Errorf("%w: %d encoded bytes, budget %d", ErrTraceTooLarge, len(enc), c.maxB)
		} else if err == nil {
			e.enc = enc
			c.rawBytes.Add(trace.EncodedSize(tr.Header(), len(tr.Events)))
			c.encBytes.Add(int64(len(enc)))
		}
	}
	e.err, e.measured = err, true
	if e.err == nil && c.backend != nil {
		c.backend.PutTrace(key, trace.FormatXTRP2, e.enc)
	}
	c.settle(key, e)
	if e.err != nil || !compiled {
		return e.enc, nil, e.err
	}
	if ct != nil {
		return e.enc, &Compiled{ct: ct}, nil
	}
	// A failed pack leaves the compile to the caller, whose compile of
	// the bytes then reports the error.
	pk, perr := translate.Pack(ctx, tr.Header(), tr.Reader())
	if perr != nil {
		return e.enc, nil, nil
	}
	return e.enc, &Compiled{pk: pk}, nil
}

// Encoded returns the memoized measurement for key as immutable bytes
// (XTRP2, or XTRP1 served from a legacy backend artifact), running
// measure on first use. Concurrent callers with the same key block
// until the single measurement completes and then share its bytes.
func (c *TraceCache) Encoded(key CacheKey, measure func() (*trace.Trace, error)) ([]byte, error) {
	e := c.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	enc, _, err := c.encodedLocked(context.Background(), key, e, measure, false)
	return enc, err
}

// Compiled returns the measurement for key compiled for replay (see
// Compile), measuring on first use and compiling once per residency in
// the compiled tier: concurrent callers share one compile. ctx is
// polled while compiling; compile failures are not memoized.
func (c *TraceCache) Compiled(ctx context.Context, key CacheKey, measure func() (*trace.Trace, error)) (*Compiled, error) {
	e := c.entry(key)
	if comp := c.residentCompiled(e); comp != nil {
		return comp, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	enc, comp, err := c.encodedLocked(ctx, key, e, measure, true)
	if err != nil {
		return nil, err
	}
	if comp == nil {
		if comp = c.residentCompiled(e); comp != nil {
			return comp, nil
		}
		if comp, err = Compile(ctx, enc); err != nil {
			return nil, err
		}
	}
	c.compiles.Add(1)
	c.admitCompiled(key, e, comp)
	return comp, nil
}

// residentCompiled returns e's compiled form if the tier holds it,
// counting the hit. Its recency is the entry's, which the lookup just
// refreshed.
func (c *TraceCache) residentCompiled(e *cacheEntry) *Compiled {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.comp != nil {
		c.compHits.Add(1)
	}
	return e.comp
}

// admitCompiled makes comp e's resident compiled form, dropping the
// compiled forms of the least recently used entries past the budget. A
// form larger than the whole budget, or one for an entry already
// evicted from the cache, is not kept: its caller replays it once and
// drops it.
func (c *TraceCache) admitCompiled(key CacheKey, e *cacheEntry, comp *Compiled) {
	size := comp.Size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; !ok || el.Value.(*lruNode).e != e || size > c.compBudget {
		return
	}
	e.comp = comp
	c.compEntries++
	c.compBytes += size
	for el := c.order.Back(); c.compBytes > c.compBudget; el = el.Prev() {
		c.dropCompiledLocked(el.Value.(*lruNode).e)
	}
}

// dropCompiledLocked evicts e's compiled form, if resident; the caller
// holds c.mu.
func (c *TraceCache) dropCompiledLocked(e *cacheEntry) {
	if e.comp == nil {
		return
	}
	c.compEntries--
	c.compBytes -= e.comp.Size()
	e.comp = nil
}

// Stats reports cache effectiveness: hits is the number of lookups
// that found the measurement already taken — in memory or in the
// durable backend — and misses the number of measurement runs
// performed.
func (c *TraceCache) Stats() (hits, misses int64) {
	m := c.misses.Load()
	return c.lookups.Load() - m, m
}

// CompiledStats describes the compiled tier: lookups it served (Hits),
// compiles it ran (Misses), and the heap bytes and entries it holds.
type CompiledStats struct {
	Hits, Misses   int64
	Bytes, Entries int64
}

// CompiledStats returns the compiled tier's counters.
func (c *TraceCache) CompiledStats() CompiledStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CompiledStats{
		Hits:    c.compHits.Load(),
		Misses:  c.compiles.Load(),
		Bytes:   c.compBytes,
		Entries: c.compEntries,
	}
}
