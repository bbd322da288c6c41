// Command perfbench is the serve-path benchmark: it starts the real
// `extrap serve` binary, drives POST /v1/sweep over loopback HTTP with a
// closed loop of two clients, checks every response, and prints the
// end-to-end metrics of one workload. With -trace 1 it also replays the
// same requests through the layers' public Go functions with a span
// around every layer call, and prints per-layer metrics instead.
//
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// clients is the closed loop's client count: each sends its next
	// request only when the previous one has returned.
	clients = 2
	// maxPhase bounds the timed phase even when minRequests are not yet
	// sent, so a run always ends within the harness's time limit.
	maxPhase = 100 * time.Second
)

// minRequests makes the p90 latency rest on at least ten samples.
var minRequests = minSamples(90)

// generated is how many requests a run draws; a run never sends more.
var generated = map[string]int{wlCold: coldBlocks * len(coldSlots), wlWarm: 20000, wlFitted: 1000}

// setupReps is how many times a run sets the server up; setup_s is the
// median.
var setupReps = map[string]int{wlCold: 16, wlWarm: 4, wlFitted: 16}

//go:embed digests.json
var digestsJSON []byte

func main() {
	os.Exit(run())
}

// metric is one printed result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	workload := flag.String("workload", "", "workload: cold-sweep, warm-whatif or fitted-dense")
	seed := flag.Uint64("seed", defaultSeed, "seed the requests are generated from")
	seconds := flag.Int("seconds", 15, "length of the timed phase in seconds (it runs on until 100 requests are sent)")
	traceFlag := flag.Int("trace", 0, "1 prints per-layer metrics from a traced replay; 0 the end-to-end metrics")
	bin := flag.String("extrap", "", "path to the extrap binary")
	workdir := flag.String("workdir", "", "directory for store directories, spans and profiles")
	writeDigests := flag.String("write-digests", "", "record this run's exact-mode digest into the given digests.json")
	flag.Parse()
	if err := json.Unmarshal(digestsJSON, &recordedDigests); err != nil {
		return fail("digests.json: %v", err)
	}
	if *bin == "" || *workdir == "" || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fail("usage: perfbench -extrap BIN -workdir DIR -workload W -seed N -seconds S -trace 0|1")
	}
	reqs, err := generate(*workload, *seed, generated[*workload])
	if err != nil {
		return fail("%v", err)
	}
	b := &bench{
		workload: *workload, seed: *seed, bin: *bin, workdir: *workdir,
		seconds: time.Duration(*seconds) * time.Second, reqs: reqs,
		client: &http.Client{Transport: &http.Transport{Proxy: nil, MaxIdleConnsPerHost: clients, DisableCompression: true}},
	}
	res, err := b.run(*traceFlag == 1)
	if err != nil {
		return fail("%v", err)
	}
	if *writeDigests != "" && b.digest != "" {
		if err := recordDigest(*writeDigests, *workload, b.digest); err != nil {
			return fail("%v", err)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	return 2
}

// recordDigest writes workload's digest into the digests file.
func recordDigest(path, workload, digest string) error {
	m := map[string]string{}
	for k, v := range recordedDigests {
		m[k] = v
	}
	m[workload] = digest
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	bin      string
	workdir  string
	seconds  time.Duration
	reqs     []request
	client   *http.Client

	digest string
}

// outcome is what one timed request returned.
type outcome struct {
	sent    bool
	start   time.Duration // since the timed phase began
	latency time.Duration
	status  int
	body    []byte // the 200 body
	err     error  // transport error or failed check
	// nonPositive counts fitted cells whose fit evaluated to a
	// non-positive time (see checkResponse).
	nonPositive int
}

func (b *bench) run(traced bool) (*result, error) {
	ctx := context.Background()
	// Half the set-ups run before the timed phase and half after it, so
	// setup_s does not rest on one moment of the host's load; the last
	// one before the phase serves it.
	reps := setupReps[b.workload]
	if traced {
		reps = 1 // the traced run reports no setup time
	}
	var setups []float64
	var srv *server
	for rep := 0; rep < (reps+1)/2; rep++ {
		if srv != nil {
			srv.stop()
		}
		var d time.Duration
		var err error
		if srv, d, err = b.setup(ctx); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	outs, elapsed, rss, before, after, err := b.timedPhase(ctx, srv)
	srv.stop()
	if err != nil {
		return nil, err
	}
	for rep := (reps + 1) / 2; rep < reps; rep++ {
		s, d, err := b.setup(ctx)
		if err != nil {
			return nil, err
		}
		s.stop()
		setups = append(setups, d.Seconds())
	}

	if err := b.writeRequests(outs); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lat []float64
	var cells, nonPositive int
	bodies := make([][]byte, len(outs))
	reported := 0
	for i, o := range outs {
		if !o.sent {
			continue
		}
		res.Attempted++
		if o.err != nil || o.status != http.StatusOK {
			res.Failed++
			if o.status == http.StatusOK { // a 200 body failed its check
				res.Correct = false
			}
			if reported < 5 {
				fmt.Fprintf(os.Stderr, "request %d: status %d: %v\n", i, o.status, o.err)
				reported++
			}
			continue
		}
		lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		cells += b.reqs[i].Cells()
		nonPositive += o.nonPositive
		bodies[i] = o.body
	}
	if !b.reqs[0].Fitted() {
		d, err := checkDigest(b.workload, b.seed, bodies)
		b.digest = d
		if err != nil {
			fmt.Fprintf(os.Stderr, "digest: %v\n", err)
			res.Correct = false
		}
	}
	fmt.Printf("%s seed=%d: %d requests (%d failed) in %.2fs, %d clients, closed loop\n",
		b.workload, b.seed, res.Attempted, res.Failed, elapsed.Seconds(), clients)
	if b.reqs[0].Fitted() {
		fmt.Printf("fitted cells predicting a non-positive time: %d of %d cells\n", nonPositive, cells)
	}
	if !traced {
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, err
		}
		p90, err := percentile(lat, 90)
		if err != nil {
			return nil, err
		}
		fmt.Printf("latency samples: %d\n", len(lat))
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["cells_per_s"] = metric{float64(cells) / elapsed.Seconds(), "1/s"}
		res.Metrics["latency_p50_ms"] = metric{p50, "ms"}
		res.Metrics["latency_p90_ms"] = metric{p90, "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		return res, nil
	}
	res.Metrics["fit.nonpositive_share"] = metric{float64(nonPositive) / float64(max(cells, 1)), "ratio"}
	ok, err := b.layerMetrics(ctx, res.Metrics, bodies, before, after)
	if err != nil {
		return nil, err
	}
	res.Correct = res.Correct && ok
	return res, nil
}

// writeRequests writes one JSON line per sent request — index, start
// and latency in ms, status — next to the span files.
func (b *bench) writeRequests(outs []outcome) error {
	var buf bytes.Buffer
	for i, o := range outs {
		if o.sent {
			fmt.Fprintf(&buf, `{"req":%d,"start_ms":%.3f,"latency_ms":%.3f,"status":%d,"cells":%d}`+"\n",
				i, o.start.Seconds()*1000, o.latency.Seconds()*1000, o.status, b.reqs[i].Cells())
		}
	}
	return os.WriteFile(filepath.Join(b.workdir, fmt.Sprintf("requests-%s-%d.jsonl", b.workload, b.seed)), buf.Bytes(), 0o644)
}

// setup starts a server and runs the workload's warm-up, returning the
// ready server and the time from process start to the end of warm-up.
func (b *bench) setup(ctx context.Context) (*server, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(b.bin, b.workdir, b.client)
	if err != nil {
		return nil, 0, err
	}
	if b.workload == wlWarm {
		for _, w := range warmupRequests() {
			if o := b.send(ctx, srv, &w); o.err != nil {
				srv.stop()
				return nil, 0, fmt.Errorf("warm-up request %d: %v", w.Index, o.err)
			}
		}
	}
	return srv, time.Since(t0), nil
}

// timedPhase runs the closed loop against srv and reads the server's
// peak RSS and its /debug/vars counters before and after it.
func (b *bench) timedPhase(ctx context.Context, srv *server) (outs []outcome, elapsed time.Duration, rss float64, before, after serveVars, err error) {
	if before, err = srv.vars(ctx, b.client); err != nil {
		return
	}
	outs, elapsed = b.closedLoop(ctx, srv)
	if rss, err = srv.peakRSSMB(); err != nil {
		return
	}
	after, err = srv.vars(ctx, b.client)
	return
}

// closedLoop runs the timed phase: clients goroutines take the next
// request index in turn until the phase has lasted b.seconds and at
// least minRequests were sent (or maxPhase passed).
func (b *bench) closedLoop(ctx context.Context, srv *server) ([]outcome, time.Duration) {
	outs := make([]outcome, len(b.reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				since := time.Since(start)
				if i >= len(b.reqs) || (since >= b.seconds && i >= minRequests) || since >= maxPhase {
					return
				}
				outs[i] = b.send(ctx, srv, &b.reqs[i])
				outs[i].start = since
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// send posts one sweep request and checks a 200 body.
func (b *bench) send(ctx context.Context, srv *server, r *request) outcome {
	o := outcome{sent: true}
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.base+"/v1/sweep", bytes.NewReader(r.Body))
	if err != nil {
		o.err = err
		return o
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(hreq)
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(t0)
	o.status = resp.StatusCode
	switch {
	case err != nil:
		o.err = err
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("%s", bytes.TrimSpace(body))
	default:
		if o.nonPositive, o.err = checkResponse(r, body); o.err == nil {
			o.body = body
		}
	}
	return o
}

// traceCount is how many leading requests the traced replay covers.
var traceCount = map[string]int{wlCold: 24, wlWarm: 64, wlFitted: 24}

// layerMetrics replays the leading requests through the layers four
// times, alternating spans off and spans on (under the CPU profiler),
// cross-checks every replayed body against the served one, and fills the
// per-layer metrics. It reports false when a cross-check fails.
func (b *bench) layerMetrics(ctx context.Context, m map[string]metric, served [][]byte, before, after serveVars) (bool, error) {
	n := traceCount[b.workload]
	for n > 0 && served[n-1] == nil {
		n--
	}
	reqs := b.reqs[:n]
	var warmup []request
	if b.workload == wlWarm {
		warmup = warmupRequests()
	}
	// Passes alternate spans off and on, twice, so neither side gains
	// from running after the other; only spans-on passes are profiled.
	var offTime, onTime time.Duration
	var on *replayResult
	var shares cursorShares
	ok := true
	for pass := 0; pass < 4; pass++ {
		traced := pass%2 == 1
		var prof bytes.Buffer
		if traced {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return false, err
			}
		}
		res, err := runReplay(ctx, b.workdir, traced, warmup, reqs)
		if traced {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return false, err
		}
		if i := equalBodies(served, res.bodies); i >= 0 {
			fmt.Fprintf(os.Stderr, "cross-check: request %d: replayed body differs from the served one\nserved:   %s\nreplayed: %s",
				i, served[i], res.bodies[i])
			ok = false
		}
		if !traced {
			offTime += res.elapsed
			continue
		}
		onTime += res.elapsed
		if err := shares.add(prof.Bytes()); err != nil {
			return false, err
		}
		on = res // the last traced pass supplies the spans
	}
	spanFile := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
	if err := writeSpans(spanFile, on.spans); err != nil {
		return false, err
	}

	self := selfByLayer(on.spans, func(req int) bool { return req >= 0 })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	sim := self["simulate"]
	moveT := time.Duration(float64(sim) * shares.share(shares.translate))
	moveD := time.Duration(float64(sim) * shares.share(shares.decode))
	layer := map[string]float64{
		"measure":   ms(self["measure"]),
		"encode":    ms(self["encode"]),
		"store":     ms(self["store"]),
		"decode":    ms(self["decode"] + moveD),
		"translate": ms(self["translate"] + moveT),
		"simulate":  ms(sim - moveT - moveD),
		"fit":       ms(self["fit"]),
		"request":   ms(self["request"]),
	}
	var stageSum float64
	for _, v := range layer {
		stageSum += v
	}
	w := on.work
	per := func(v int64) float64 { return float64(v) / float64(n) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	dReq := float64(after.Serve.Requests["/v1/sweep"] - before.Serve.Requests["/v1/sweep"])
	dHits := float64(after.Serve.CacheHits - before.Serve.CacheHits)
	dMiss := float64(after.Serve.CacheMisses - before.Serve.CacheMisses)
	dAtt := float64(after.Serve.Sim.Attempts - before.Serve.Sim.Attempts)
	dFF := float64(after.Serve.Sim.FastForwards - before.Serve.Sim.FastForwards)
	dSkip := float64(after.Serve.Sim.ItersSkipped - before.Serve.Sim.ItersSkipped)
	handlerMs := ratio(float64(after.Serve.LatencyUsTotal-before.Serve.LatencyUsTotal)/1000, dReq)

	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("measure.self_ms", layer["measure"], "ms")
	set("measure.events", per(w.events), "count")
	set("encode.self_ms", layer["encode"], "ms")
	set("encode.ratio", ratio(float64(w.rawBytes), float64(w.xtrp2Bytes)), "ratio")
	set("store.self_ms", layer["store"], "ms")
	set("store.bytes_written", per(w.bytesWritten), "bytes")
	set("decode.self_ms", layer["decode"], "ms")
	set("translate.self_ms", layer["translate"], "ms")
	set("simulate.self_ms", layer["simulate"], "ms")
	set("simulate.cells", per(w.cells), "count")
	set("simulate.us_per_cell", ratio(layer["simulate"]*1000, per(w.cells)), "us")
	set("ffwd.attempts", ratio(dAtt, dReq), "count")
	set("ffwd.hit_ratio", ratio(dFF, dAtt), "ratio")
	set("ffwd.iters_skipped", ratio(dSkip, dReq), "count")
	set("fit.self_ms", layer["fit"], "ms")
	set("fit.anchor_share", ratio(float64(w.anchors), float64(w.fittedPoints)), "ratio")
	set("cache.hit_ratio", ratio(dHits, dHits+dMiss), "ratio")
	set("serve.handler_ms_mean", handlerMs, "ms")
	set("serve.unaccounted_share", 1-ratio(stageSum, handlerMs), "ratio")
	set("stages.self_ms", stageSum, "ms")
	set("stages.measure_encode_share", ratio(layer["measure"]+layer["encode"], stageSum), "ratio")
	set("stages.replay_share", ratio(layer["decode"]+layer["translate"]+layer["simulate"], stageSum), "ratio")
	set("trace.overhead", onTime.Seconds()/offTime.Seconds()-1, "ratio")
	set("trace.requests", float64(n), "count")
	set("trace.profile_samples", float64(shares.total), "count")
	for k, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return false, fmt.Errorf("metric %s is %v", k, v.Value)
		}
	}
	fmt.Printf("traced replay: %d requests, spans written to %s, tracing overhead %.1f%% (%.3fs on vs %.3fs off)\n",
		n, spanFile, 100*m["trace.overhead"].Value, onTime.Seconds(), offTime.Seconds())
	return ok, nil
}
