package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd dispatches a CLI command in-process and returns its output.
func runCmd(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := dispatch(cmd, args, &buf); err != nil {
		t.Fatalf("extrap %s %v: %v", cmd, args, err)
	}
	return buf.String()
}

func TestList(t *testing.T) {
	out := runCmd(t, "list")
	for _, want := range []string{"benchmarks:", "grid", "environments:", "cm5", "experiments:", "fig4"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunStatsTranslateSimulateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.xtrp")
	out := runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "10",
		"-verify", "-o", path)
	if !strings.Contains(out, "wrote "+path) {
		t.Fatalf("run output: %q", out)
	}

	stats := runCmd(t, "stats", "-i", path)
	if !strings.Contains(stats, "threads=4") || !strings.Contains(stats, "barriers=") {
		t.Fatalf("stats output: %q", stats)
	}

	tl := runCmd(t, "translate", "-i", path)
	if !strings.Contains(tl, "ideal speedup") {
		t.Fatalf("translate output: %q", tl)
	}

	simOut := runCmd(t, "simulate", "-i", path, "-env", "cm5")
	for _, want := range []string{"environment: cm5", "compute", "ideal parallel time"} {
		if !strings.Contains(simOut, want) {
			t.Fatalf("simulate output missing %q: %q", want, simOut)
		}
	}
}

func TestRunTextFormat(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.txt")
	runCmd(t, "run", "-bench", "cyclic", "-n", "2", "-size", "32", "-iters", "2",
		"-text", "-o", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "#xtrp text 1") {
		t.Fatalf("text trace header missing: %q", string(data[:40]))
	}
	// The text trace reads back through stats.
	stats := runCmd(t, "stats", "-i", path)
	if !strings.Contains(stats, "threads=2") {
		t.Fatalf("stats on text trace: %q", stats)
	}
}

func TestSimulateOverrides(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.xtrp")
	runCmd(t, "run", "-bench", "embar", "-n", "2", "-size", "8", "-o", path)

	base := runCmd(t, "simulate", "-i", path, "-env", "ideal")
	slow := runCmd(t, "simulate", "-i", path, "-env", "ideal", "-mips", "2.0")
	if base == slow {
		t.Error("-mips override had no effect on output")
	}
	pol := runCmd(t, "simulate", "-i", path, "-env", "generic-dm", "-policy", "poll", "-poll-interval", "50")
	if !strings.Contains(pol, "time=") {
		t.Fatalf("policy simulate output: %q", pol)
	}
}

func TestSimulateEmitTrace(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.xtrp")
	emitted := filepath.Join(dir, "extrap.xtrp")
	runCmd(t, "run", "-bench", "sort", "-n", "4", "-size", "64", "-o", src)
	out := runCmd(t, "simulate", "-i", src, "-env", "generic-dm", "-emit-trace", emitted)
	if !strings.Contains(out, "extrapolated trace written") {
		t.Fatalf("emit output: %q", out)
	}
	stats := runCmd(t, "stats", "-i", emitted)
	if !strings.Contains(stats, "msgs=") {
		t.Fatalf("extrapolated trace has no message events: %q", stats)
	}
}

// TestSimulateStreamMatchesInMemory: -stream runs the bounded-memory
// pipeline, and its report must be byte-identical to the in-memory
// path's for every output section (result, ideal time, breakdown).
func TestSimulateStreamMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", path)

	inMem := runCmd(t, "simulate", "-i", path, "-env", "cm5")
	streamed := runCmd(t, "simulate", "-i", path, "-env", "cm5", "-stream")
	if inMem != streamed {
		t.Errorf("-stream output differs from in-memory:\n--- in-memory ---\n%s\n--- stream ---\n%s", inMem, streamed)
	}

	// The emitted extrapolated traces must match too.
	emitMem := filepath.Join(dir, "mem.xtrp")
	emitStream := filepath.Join(dir, "stream.xtrp")
	runCmd(t, "simulate", "-i", path, "-env", "generic-dm", "-emit-trace", emitMem)
	runCmd(t, "simulate", "-i", path, "-env", "generic-dm", "-emit-trace", emitStream, "-stream")
	memBytes, err := os.ReadFile(emitMem)
	if err != nil {
		t.Fatal(err)
	}
	streamBytes, err := os.ReadFile(emitStream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memBytes, streamBytes) {
		t.Error("emitted traces differ between -stream and in-memory simulate")
	}

	// Text traces cannot stream (the codec is line-oriented, not
	// incremental): -stream must refuse rather than misparse.
	txt := filepath.Join(dir, "g.txt")
	runCmd(t, "run", "-bench", "grid", "-n", "2", "-size", "16", "-iters", "2", "-text", "-o", txt)
	var buf bytes.Buffer
	if err := dispatch("simulate", []string{"-i", txt, "-env", "cm5", "-stream"}, &buf); err == nil {
		t.Error("-stream accepted a text trace")
	}
}

func TestExperimentQuick(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "-csv", dir, "table3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "MipsRatio") {
		t.Fatalf("experiment output: %q", buf.String())
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil || len(csvs) == 0 {
		t.Fatalf("no CSVs written: %v %v", csvs, err)
	}
}

func TestErrorPaths(t *testing.T) {
	var buf bytes.Buffer
	if err := dispatch("bogus", nil, &buf); err != errUnknownCommand {
		t.Errorf("unknown command: %v", err)
	}
	if err := dispatch("run", []string{}, &buf); err == nil {
		t.Error("run without -bench accepted")
	}
	if err := dispatch("stats", []string{}, &buf); err == nil {
		t.Error("stats without -i accepted")
	}
	if err := dispatch("stats", []string{"-i", "/nonexistent.xtrp"}, &buf); err == nil {
		t.Error("stats on missing file accepted")
	}
	if err := dispatch("simulate", []string{"-i", "/nonexistent.xtrp"}, &buf); err == nil {
		t.Error("simulate on missing file accepted")
	}
	if err := dispatch("experiment", []string{"fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := dispatch("experiment", []string{}, &buf); err == nil {
		t.Error("experiment without id accepted")
	}
	if err := dispatch("run", []string{"-bench", "nosuch"}, &buf); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if err := dispatch("simulate", []string{"-i", "x", "-env", "nosuch"}, &buf); err == nil {
		t.Error("unknown environment accepted")
	}
	// Deleted execution-strategy knobs must fail loudly, not be ignored.
	for _, cmd := range []string{"experiment", "serve"} {
		for _, args := range [][]string{{"-batch", "8"}, {"-trace-format", "xtrp1"}, {"-replay", "event"}} {
			err := dispatch(cmd, args, &buf)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
				t.Errorf("%s %s: err = %v, want an undefined-flag error", cmd, args[0], err)
			}
		}
	}
}

func TestStatsRejectsCorruptTrace(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xtrp")
	if err := os.WriteFile(bad, []byte("this is not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dispatch("stats", []string{"-i", bad}, &buf); err == nil {
		t.Error("corrupt trace accepted")
	}
}

func TestProfileCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.xtrp")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", path)

	ideal := runCmd(t, "profile", "-i", path)
	if !strings.Contains(ideal, "idealized parallel execution") {
		t.Fatalf("profile output: %q", ideal)
	}
	pred := runCmd(t, "profile", "-i", path, "-env", "cm5")
	for _, want := range []string{"predicted execution", "phases (by total time):", "exchange", "costliest barriers"} {
		if !strings.Contains(pred, want) {
			t.Fatalf("profile -env output missing %q:\n%s", want, pred)
		}
	}
	var buf bytes.Buffer
	if err := dispatch("profile", []string{}, &buf); err == nil {
		t.Error("profile without -i accepted")
	}
	if err := dispatch("profile", []string{"-i", path, "-env", "nosuch"}, &buf); err == nil {
		t.Error("profile with unknown env accepted")
	}
}

func TestExperimentSVGOutput(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "-svg", dir, "fig5"}, &buf); err != nil {
		t.Fatal(err)
	}
	svgs, err := filepath.Glob(filepath.Join(dir, "*.svg"))
	if err != nil || len(svgs) == 0 {
		t.Fatalf("no SVGs written: %v %v", svgs, err)
	}
	data, err := os.ReadFile(svgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("output is not SVG")
	}
}

func TestTimelineCommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "g.xtrp")
	svgPath := filepath.Join(dir, "tl.svg")
	runCmd(t, "run", "-bench", "grid", "-n", "4", "-size", "16", "-iters", "6", "-o", tracePath)
	out := runCmd(t, "timeline", "-i", tracePath, "-env", "cm5", "-o", svgPath)
	if !strings.Contains(out, "compute=") || !strings.Contains(out, "barrier=") {
		t.Fatalf("timeline output: %q", out)
	}
	data, err := os.ReadFile(svgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "<svg") {
		t.Error("timeline did not write SVG")
	}
	var buf bytes.Buffer
	if err := dispatch("timeline", []string{}, &buf); err == nil {
		t.Error("timeline without -i accepted")
	}
}

func TestSweepCommand(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "c.xtrp")
	runCmd(t, "run", "-bench", "cyclic", "-n", "4", "-size", "64", "-iters", "4", "-o", tracePath)
	out := runCmd(t, "sweep", "-i", tracePath, "-param", "startup", "-values", "5,100")
	if !strings.Contains(out, "what-if sweep") || !strings.Contains(out, "1.00×") {
		t.Fatalf("sweep output: %q", out)
	}
	for _, p := range []string{"bandwidth", "mips", "service", "barrier-model"} {
		o := runCmd(t, "sweep", "-i", tracePath, "-param", p, "-values", "1,2")
		if !strings.Contains(o, "what-if") {
			t.Fatalf("sweep %s output: %q", p, o)
		}
	}
	var buf bytes.Buffer
	if err := dispatch("sweep", []string{"-i", tracePath, "-param", "nosuch"}, &buf); err == nil {
		t.Error("unknown sweep parameter accepted")
	}
	if err := dispatch("sweep", []string{"-i", tracePath, "-values", "abc"}, &buf); err == nil {
		t.Error("non-numeric sweep value accepted")
	}
	if err := dispatch("sweep", []string{"-i", tracePath, "-param", "bandwidth", "-values", "0"}, &buf); err == nil {
		t.Error("zero bandwidth accepted")
	}
}

func TestExportCommand(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "c.xtrp")
	runCmd(t, "run", "-bench", "cyclic", "-n", "3", "-size", "32", "-iters", "2", "-o", src)

	sddf := filepath.Join(dir, "c.sddf")
	out := runCmd(t, "export", "-i", src, "-format", "sddf", "-o", sddf)
	if !strings.Contains(out, "wrote "+sddf) {
		t.Fatalf("export output: %q", out)
	}
	data, err := os.ReadFile(sddf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "SDDF-A") {
		t.Error("not an SDDF export")
	}

	splitDir := filepath.Join(dir, "split")
	out = runCmd(t, "export", "-i", src, "-format", "text", "-split", splitDir)
	if !strings.Contains(out, "3 per-thread translated traces") {
		t.Fatalf("split output: %q", out)
	}
	files, _ := filepath.Glob(filepath.Join(splitDir, "thread-*.xtrp"))
	if len(files) != 3 {
		t.Fatalf("split wrote %d files", len(files))
	}
	// Split traces are partial by design (one thread's events), so the
	// full-trace validator rejects them; check they are non-empty binary
	// traces instead.
	data, err = os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 10 || string(data[:5]) != "XTRP1" {
		t.Fatalf("split file is not a binary trace (%d bytes)", len(data))
	}
	var buf bytes.Buffer
	if err := dispatch("export", []string{"-i", src, "-format", "bogus"}, &buf); err == nil {
		t.Error("unknown export format accepted")
	}
}

func TestCalibrateCommand(t *testing.T) {
	out := runCmd(t, "calibrate")
	for _, want := range []string{"this machine:", "MFLOPS", "MipsRatio host→sun4:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("calibrate output missing %q: %q", want, out)
		}
	}
}

// TestExperimentModeFlag: -mode plumbs through to the engine options —
// exact and empty normalize to the default, fitted selects the sparse
// path, and anything else is rejected before any work runs.
func TestExperimentModeFlag(t *testing.T) {
	cases := []struct {
		args    []string
		want    string
		wantErr bool
	}{
		{[]string{"table3"}, "", false},
		{[]string{"-mode", "exact", "table3"}, "", false},
		{[]string{"-mode", "fitted", "table3"}, "fitted", false},
		{[]string{"-mode", "approximate", "table3"}, "", true},
	}
	for _, tc := range cases {
		opts, id, _, _, _, _, err := parseExperimentFlags(tc.args)
		if tc.wantErr {
			if err == nil || !strings.Contains(err.Error(), "-mode") {
				t.Errorf("args %v: err = %v, want -mode error", tc.args, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("args %v: %v", tc.args, err)
			continue
		}
		if opts.FitMode != tc.want || id != "table3" {
			t.Errorf("args %v: FitMode %q id %q, want %q table3", tc.args, opts.FitMode, id, tc.want)
		}
	}
}

// TestExperimentFittedRuns: a quick fitted experiment runs end to end
// and renders the same table shape as the exact path.
func TestExperimentFittedRuns(t *testing.T) {
	var buf bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "-mode", "fitted", "fig6"}, &buf); err != nil {
		t.Fatal(err)
	}
	var exact bytes.Buffer
	if err := cmdExperiment([]string{"-quick", "fig6"}, &exact); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(buf.String(), "\n"), strings.Count(exact.String(), "\n"); got != want {
		t.Errorf("fitted output shape differs: %d lines vs exact %d", got, want)
	}
}

// TestExperimentWorkloadSweep: `-workload spec.json` synthesizes the
// composed program and prints a table that is byte-identical across
// worker counts and a cold vs warm store — the determinism CI diffs
// exactly this output.
func TestExperimentWorkloadSweep(t *testing.T) {
	spec := filepath.Join("..", "..", "internal", "compose", "testdata", "nested.json")
	st := t.TempDir()
	runs := [][]string{
		{"-quick", "-workload", spec},
		{"-quick", "-workers", "4", "-workload", spec},
		{"-quick", "-store", st, "-workload", spec},
		{"-quick", "-store", st, "-workers", "4", "-workload", spec},
	}
	var want string
	for i, args := range runs {
		var buf bytes.Buffer
		if err := cmdExperiment(args, &buf); err != nil {
			t.Fatalf("args %v: %v", args, err)
		}
		if i == 0 {
			want = buf.String()
			if !strings.Contains(want, "workload  wl:") || !strings.Contains(want, "wl/v1|") {
				t.Fatalf("workload sweep output missing name/canonical header:\n%s", want)
			}
			continue
		}
		if buf.String() != want {
			t.Errorf("args %v: output differs from baseline:\n%s\nvs\n%s", args, buf.String(), want)
		}
	}
}

// TestExperimentWorkloadFlagErrors: -workload replaces the experiment
// id, and a bad spec file fails loudly.
func TestExperimentWorkloadFlagErrors(t *testing.T) {
	if _, _, _, _, _, _, err := parseExperimentFlags([]string{"-workload", "spec.json", "fig4"}); err == nil {
		t.Error("-workload plus an experiment id should be rejected")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"root":{"kind":"warp"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdExperiment([]string{"-workload", bad}, new(bytes.Buffer)); err == nil {
		t.Error("invalid workload spec should fail cmdExperiment")
	}
}
