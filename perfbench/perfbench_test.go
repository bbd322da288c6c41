package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"extrap/internal/serve"
)

func quietServer(t *testing.T, timeout time.Duration) http.Handler {
	t.Helper()
	srv, err := serve.New(serve.Config{
		RequestTimeout: timeout,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)))
	return rec
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(w, 7, 60)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 7, 60)
		c, _ := generate(w, 8, 60)
		same, differ := true, false
		for i := range a {
			same = same && bytes.Equal(a[i].Body, b[i].Body)
			differ = differ || !bytes.Equal(a[i].Body, c[i].Body)
		}
		if !same {
			t.Errorf("%s: seed 7 generated different requests on two calls", w)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generated the same requests", w)
		}
	}
}

// TestColdRequestsAreDistinct: a cold request must name a measurement
// no earlier request named, or the trace cache would hit.
func TestColdRequestsAreDistinct(t *testing.T) {
	for _, w := range []string{wlCold, wlFitted} {
		reqs, _ := generate(w, 1, generated[w])
		seen := map[string]bool{}
		for _, r := range reqs {
			b, sz, err := program(&r.Sweep)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d/%d", b.Name(), sz.N, sz.Iters)
			if seen[key] {
				t.Fatalf("%s: request %d repeats program %s size %+v", w, r.Index, b.Name(), sz)
			}
			seen[key] = true
		}
	}
}

// TestRequestsPassValidation posts generated requests to the real
// handler with a deadline that expires before any work starts: a request
// that passes the API's validation reaches the pipeline and times out
// (504), one that fails it is rejected with 400.
func TestRequestsPassValidation(t *testing.T) {
	h := quietServer(t, time.Nanosecond)
	all := warmupRequests()
	for _, w := range workloadNames {
		reqs, err := generate(w, 3, 120)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, reqs...)
	}
	for _, r := range all {
		rec := post(h, r.Body)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %s: status %d, want 504 (validation passed): %s", r.Body, rec.Code, rec.Body)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 … 1, unsorted
	}
	if p, err := percentile(xs, 90); err != nil || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, err)
	}
	if p, err := percentile(xs, 50); err != nil || p != 50 {
		t.Errorf("p50 of 1..100 = %v, %v; want 50", p, err)
	}
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted with 9 beyond it")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted with 9 beyond it")
	}
	if minSamples(90) != 100 || minSamples(50) != 20 {
		t.Errorf("minSamples(90), minSamples(50) = %d, %d; want 100, 20", minSamples(90), minSamples(50))
	}
	if median([]float64{3, 1, 2, 4}) != 2.5 || median([]float64{5, 1, 3}) != 3 {
		t.Error("median is wrong")
	}
}

func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "request", Req: 0, Parent: -1, Start: 0, End: 100},
		{Name: "measure", Req: 0, Parent: 0, Start: 10, End: 40},
		{Name: "encode", Req: 0, Parent: 1, Start: 15, End: 25},
		{Name: "simulate", Req: 0, Parent: 0, Start: 50, End: 90},
		{Name: "simulate", Req: 1, Parent: -1, Start: 100, End: 107},
	}
	want := []time.Duration{30, 20, 10, 40, 7}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	by := selfByLayer(spans, func(req int) bool { return req == 0 })
	if by["simulate"] != 40 || by["request"] != 30 || by["measure"] != 20 {
		t.Errorf("selfByLayer = %v", by)
	}

	tr := newTracer(true)
	tr.req = 4
	outer := tr.begin("fit")
	tr.do("measure", func() error { return nil })
	tr.end(outer)
	tr.do("simulate", func() error { return nil })
	parents := []int{tr.spans[0].Parent, tr.spans[1].Parent, tr.spans[2].Parent}
	if !slices.Equal(parents, []int{-1, 0, -1}) || tr.spans[1].Req != 4 {
		t.Errorf("tracer spans = %+v", tr.spans)
	}
	if off := newTracer(false); off.begin("x") != -1 || len(off.spans) != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

func TestCheckResponse(t *testing.T) {
	r := newRequest(0, serve.SweepRequest{Benchmark: "grid", Machine: "cm5", Procs: []int{1, 2}})
	good := `{"benchmark":"grid","machine":"cm5","size":64,"iters":324,"points":[` +
		`{"procs":1,"predicted_ms":10,"speedup":1,"efficiency":1},{"procs":2,"predicted_ms":6,"speedup":1.6,"efficiency":0.8}]}`
	if _, err := checkResponse(&r, []byte(good)); err != nil {
		t.Errorf("good body rejected: %v", err)
	}
	for name, body := range map[string]string{
		"ladder":   strings.Replace(good, `"procs":2`, `"procs":4`, 1),
		"negative": strings.Replace(good, `"predicted_ms":6`, `"predicted_ms":-6`, 1),
		"machine":  strings.Replace(good, `"machine":"cm5"`, `"machine":"ideal"`, 1),
		"unknown":  strings.Replace(good, `"size":64`, `"sise":64`, 1),
	} {
		if _, err := checkResponse(&r, []byte(body)); err == nil {
			t.Errorf("%s: bad body accepted", name)
		}
	}
	f := newRequest(0, serve.SweepRequest{Benchmark: "grid", Machine: "cm5", Procs: []int{1, 2}, Mode: "fitted"})
	fitted := `{"benchmark":"grid","machine":"cm5","size":64,"iters":324,"mode":"fitted","points":[` +
		`{"procs":1,"predicted_ms":10,"speedup":1,"efficiency":1,"source":"simulated","interval_ms":0},` +
		`{"procs":2,"predicted_ms":6,"speedup":1.6,"efficiency":0.8,"source":"fitted","interval_ms":0.1}],` +
		`"fit":{"basis":["1"],"coefficients":[1],"anchors":1,"iterations":1,"converged":true,"tolerance":0.005,"max_rel_residual":0,"mean_rel_residual":0}}`
	if n, err := checkResponse(&f, []byte(fitted)); err != nil || n != 0 {
		t.Errorf("good fitted body: %d non-positive cells, %v", n, err)
	}
	if _, err := checkResponse(&f, []byte(strings.Replace(fitted, `"anchors":1`, `"anchors":2`, 1))); err == nil {
		t.Error("fitted body whose simulated points disagree with fit.anchors accepted")
	}
	// A fitted cell whose fit is non-positive is rendered with speedup
	// and efficiency 0; it is counted, and anything else is rejected.
	neg := strings.Replace(fitted, `"predicted_ms":6,"speedup":1.6,"efficiency":0.8`, `"predicted_ms":-0.5,"speedup":0,"efficiency":0`, 1)
	if n, err := checkResponse(&f, []byte(neg)); err != nil || n != 1 {
		t.Errorf("non-positive fitted cell: counted %d, %v; want 1, nil", n, err)
	}
	if _, err := checkResponse(&f, []byte(strings.Replace(neg, `"speedup":0`, `"speedup":2`, 1))); err == nil {
		t.Error("non-positive fitted cell with a speedup accepted")
	}
	anchorNeg := strings.Replace(fitted, `"predicted_ms":10`, `"predicted_ms":-10`, 1)
	if _, err := checkResponse(&f, []byte(anchorNeg)); err == nil {
		t.Error("non-positive simulated anchor accepted")
	}
}

// TestReplayMatchesServer: the layer replay renders the bytes the real
// handler serves, for exact single- and multi-machine and fitted sweeps.
func TestReplayMatchesServer(t *testing.T) {
	h := quietServer(t, time.Minute)
	spec := warmPrograms[len(warmPrograms)-1].Workload
	reqs := []request{
		newRequest(0, serve.SweepRequest{Benchmark: "poisson", Machine: "cm5", Procs: []int{1, 4}}),
		newRequest(1, serve.SweepRequest{Workload: spec, Machines: allMachines, Procs: []int{2, 8}}),
		newRequest(2, serve.SweepRequest{Workload: spec, Machines: []string{"ideal", "cm5"},
			Procs: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, Mode: "fitted"}),
	}
	var served [][]byte
	for _, r := range reqs {
		rec := post(h, r.Body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if _, err := checkResponse(&r, rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		served = append(served, rec.Body.Bytes())
	}
	res, err := runReplay(context.Background(), t.TempDir(), true, nil, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if i := equalBodies(served, res.bodies); i >= 0 {
		t.Fatalf("request %d:\nserved   %s\nreplayed %s", i, served[i], res.bodies[i])
	}
	if res.work.anchors == 0 || res.work.anchors >= res.work.fittedPoints {
		t.Errorf("fitted replay simulated %d anchors of %d points", res.work.anchors, res.work.fittedPoints)
	}
	names := map[string]bool{}
	for _, s := range res.spans {
		names[s.Name] = true
	}
	for _, n := range []string{"request", "store", "measure", "encode", "decode", "translate", "simulate", "fit"} {
		if !names[n] {
			t.Errorf("no %q span recorded", n)
		}
	}
}

//go:noinline
func spin(until time.Time) int {
	n := 0
	for time.Now().Before(until) {
		n++
	}
	return n
}

// TestProfileParser: the hand-rolled pprof reader finds the functions a
// real CPU profile sampled.
func TestProfileParser(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range p.samples {
		for _, f := range p.frames(s.locs) {
			found = found || f == "extrap/perfbench.spin"
		}
	}
	if !found {
		t.Errorf("no sample in extrap/perfbench.spin among %d samples", len(p.samples))
	}
	var c cursorShares
	if err := c.add(buf.Bytes()); err != nil || c.total != 0 {
		t.Errorf("a profile without simulation attributed %d samples (%v)", c.total, err)
	}
}

func TestDigestsFileParses(t *testing.T) {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		t.Fatal(err)
	}
	for w := range m {
		if w != wlCold && w != wlWarm {
			t.Errorf("digest recorded for %q; only exact-mode workloads are recorded", w)
		}
	}
}

func TestDigestCheck(t *testing.T) {
	bodies := make([][]byte, digestCount)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf("body %d\n", i))
	}
	got, _ := digestBodies(bodies, digestCount)
	saved := recordedDigests
	defer func() { recordedDigests = saved }()
	recordedDigests = map[string]string{wlCold: got}
	if _, err := checkDigest(wlCold, defaultSeed, bodies); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	bodies[3] = []byte("changed\n")
	if _, err := checkDigest(wlCold, defaultSeed, bodies); err == nil {
		t.Error("changed body passed the digest check")
	}
	if _, err := checkDigest(wlCold, defaultSeed+1, bodies); err != nil {
		t.Errorf("digest checked at a seed it was not recorded for: %v", err)
	}
	bodies[5] = nil
	if _, err := checkDigest(wlCold, defaultSeed+1, bodies); err == nil {
		t.Error("digest of a run with a missing body accepted")
	}
}
