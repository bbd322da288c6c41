package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"extrap/internal/serve"
)

// checkResponse validates one 200 body against its request: it parses
// as the response shape the request selects, carries the requested
// curves (machines, in order) and ladder, and every exact cell and every
// simulated anchor is positive and finite. Fitted bodies must tag every
// point "simulated" or "fitted", exactly fit.anchors of them
// "simulated" per curve.
//
// A fitted (not simulated) cell is the fit's evaluation, and the API
// renders a non-positive evaluation with speedup and efficiency 0. Such
// cells pass when rendered that way; checkResponse returns their count
// so the run reports them (the fit then predicts a time that cannot
// happen, a model accuracy defect rather than a serving failure).
func checkResponse(r *request, body []byte) (nonPositive int, err error) {
	ladder := r.Sweep.Procs
	if len(ladder) == 0 {
		ladder = defaultLadder
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if len(r.Sweep.Machines) == 0 {
		var resp serve.SweepResponse
		if err := dec.Decode(&resp); err != nil {
			return 0, fmt.Errorf("decoding sweep response: %v", err)
		}
		if resp.Machine != r.Sweep.Machine {
			return 0, fmt.Errorf("machine %q, want %q", resp.Machine, r.Sweep.Machine)
		}
		return checkCurve(r.Fitted(), ladder, resp.Points, resp.Fit)
	}
	var resp serve.MultiSweepResponse
	if err := dec.Decode(&resp); err != nil {
		return 0, fmt.Errorf("decoding multi-machine sweep response: %v", err)
	}
	if len(resp.Curves) != len(r.Sweep.Machines) {
		return 0, fmt.Errorf("%d curves, want %d", len(resp.Curves), len(r.Sweep.Machines))
	}
	for i, c := range resp.Curves {
		if c.Machine != r.Sweep.Machines[i] {
			return 0, fmt.Errorf("curve %d is machine %q, want %q", i, c.Machine, r.Sweep.Machines[i])
		}
		n, err := checkCurve(r.Fitted(), ladder, c.Points, c.Fit)
		if err != nil {
			return 0, fmt.Errorf("curve %s: %v", c.Machine, err)
		}
		nonPositive += n
	}
	return nonPositive, nil
}

func checkCurve(fitted bool, ladder []int, pts []serve.SweepPoint, fit *serve.FitSummary) (nonPositive int, err error) {
	if len(pts) != len(ladder) {
		return 0, fmt.Errorf("%d points, want %d", len(pts), len(ladder))
	}
	simulated := 0
	for i, p := range pts {
		if p.Procs != ladder[i] {
			return 0, fmt.Errorf("point %d has procs %d, want %d", i, p.Procs, ladder[i])
		}
		switch {
		case !fitted && (p.Source != "" || p.IntervalMs != nil):
			return 0, fmt.Errorf("exact point procs=%d carries fitted fields", p.Procs)
		case fitted && p.Source == "simulated":
			simulated++
		case fitted && p.Source != "fitted":
			return 0, fmt.Errorf("point procs=%d has source %q", p.Procs, p.Source)
		case fitted && p.PredictedMs <= 0:
			// The fit evaluated to a non-positive time: the API renders
			// speedup and efficiency 0.
			nonPositive++
			if p.Speedup != 0 || p.Efficiency != 0 || math.IsInf(p.PredictedMs, 0) || math.IsNaN(p.PredictedMs) {
				return 0, fmt.Errorf("fitted point procs=%d predicts %v ms with speedup %v", p.Procs, p.PredictedMs, p.Speedup)
			}
			continue
		}
		for _, v := range []float64{p.PredictedMs, p.Speedup, p.Efficiency} {
			if !(v > 0) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("point procs=%d has a non-positive or non-finite value %v", p.Procs, v)
			}
		}
	}
	if !fitted {
		if fit != nil {
			return 0, fmt.Errorf("exact response carries a fit summary")
		}
		return 0, nil
	}
	if fit == nil {
		return 0, fmt.Errorf("fitted response has no fit summary")
	}
	if simulated != fit.Anchors {
		return 0, fmt.Errorf("%d points tagged simulated, fit.anchors = %d", simulated, fit.Anchors)
	}
	return nonPositive, nil
}

// digestBodies hashes the bodies of the first n requests in index order.
// It reports false when one of them has no 200 body.
func digestBodies(bodies [][]byte, n int) (string, bool) {
	h := sha256.New()
	for i := 0; i < n; i++ {
		if i >= len(bodies) || bodies[i] == nil {
			return "", false
		}
		h.Write(bodies[i])
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// digestCount is how many leading exact-mode bodies the recorded digest
// covers; every run sends at least minRequests, so all are present.
const digestCount = 64

// defaultSeed is the seed the recorded digests belong to.
const defaultSeed = 1

// recordedDigests are the SHA-256 digests of the first digestCount
// response bodies of each exact-mode workload at defaultSeed. Exact
// predictions are byte-identical across releases by policy, so a
// mismatch is a correctness failure. Regenerate with -write-digests
// only when the request generator changes.
var recordedDigests = map[string]string{}

// checkDigest compares a run's digest with the recorded one. Fitted
// workloads are not recorded: accuracy work may change fitted bodies,
// so they are checked only against the traced replay of the same run.
func checkDigest(workload string, seed uint64, bodies [][]byte) (string, error) {
	got, ok := digestBodies(bodies, digestCount)
	if !ok {
		return "", fmt.Errorf("fewer than %d leading 200 bodies to digest", digestCount)
	}
	want, recorded := recordedDigests[workload]
	if seed != defaultSeed || !recorded {
		return got, nil
	}
	if got != want {
		return got, fmt.Errorf("exact-mode digest %s, recorded %s", got, want)
	}
	return got, nil
}

// equalBodies reports the first request index whose replayed body
// differs from the served one, or -1.
func equalBodies(served, replayed [][]byte) int {
	for i := range replayed {
		if !slices.Equal(served[i], replayed[i]) {
			return i
		}
	}
	return -1
}
