package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentQuickGolden pins `extrap experiment -quick -csv <dir>
// all` — its stdout and every CSV it writes — to a frozen copy in
// testdata/golden-quick. Every experiment, table and figure flows
// through the trace cache, so any change to caching, translation or
// replay that moves a single virtual nanosecond shows up here as a
// byte diff. Regenerate the golden only for an intended output change:
//
//	go run ./cmd/extrap experiment -quick -csv cmd/extrap/testdata/golden-quick/csv all \
//	    > cmd/extrap/testdata/golden-quick/stdout.txt
func TestExperimentQuickGolden(t *testing.T) {
	golden := filepath.Join("testdata", "golden-quick")
	dir := t.TempDir()
	out := runCmd(t, "experiment", "-quick", "-csv", dir, "all")
	want, err := os.ReadFile(filepath.Join(golden, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("stdout differs from %s/stdout.txt", golden)
	}

	wantFiles, err := filepath.Glob(filepath.Join(golden, "csv", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	gotFiles, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFiles) != len(wantFiles) || len(wantFiles) == 0 {
		t.Fatalf("wrote %d CSV files, golden has %d", len(gotFiles), len(wantFiles))
	}
	for _, wf := range wantFiles {
		name := filepath.Base(wf)
		want, err := os.ReadFile(wf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from the golden", name)
		}
	}
}
