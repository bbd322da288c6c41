package trace_test

import (
	"fmt"
	"testing"

	"extrap/internal/benchmarks"
	"extrap/internal/compose"
	"extrap/internal/core"
	"extrap/internal/trace"
)

// TestMinerMatchesReferenceOnKernels measures every suite kernel and
// compose preset at its default size over the default sweep ladder and
// requires the production miner to mine each trace exactly as the
// frozen reference does, down to the XTRP2 bytes.
func TestMinerMatchesReferenceOnKernels(t *testing.T) {
	type program struct {
		name    string
		factory core.ProgramFactory
	}
	var progs []program
	for _, b := range benchmarks.Suite() {
		progs = append(progs, program{b.Name(), b.Factory(b.DefaultSize())})
	}
	for _, p := range compose.Presets() {
		progs = append(progs, program{p.Name(), p.Factory(p.DefaultSize())})
	}
	for _, p := range progs {
		for _, threads := range []int{1, 2, 4, 8, 16, 32} {
			t.Run(fmt.Sprintf("%s/%d", p.name, threads), func(t *testing.T) {
				tr, err := core.Measure(p.factory(threads), core.MeasureOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if err := trace.CheckMinerEquivalence(tr); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
