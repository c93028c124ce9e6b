package interp_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// TestLowerDeterministic asserts that lowering to threaded code does not
// depend on the width of the per-function worker pool: every width from 1
// to GOMAXPROCS+2, over several rounds, yields the same code, br_table pool
// and stack high-water mark for every function, and a module with two
// malformed bodies always reports the lower function index.
func TestLowerDeterministic(t *testing.T) {
	// Hundreds of functions of very different sizes, so every width of the
	// pool interleaves them differently.
	m, _, err := core.Instrument(synthapp.Generate(synthapp.Config{TargetBytes: 256 << 10, Seed: 7}),
		core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interp.Config{Guarded: true}
	serial, err := interp.LowerFuncs(m, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= runtime.GOMAXPROCS(0)+2; w++ {
		for round := 0; round < 3; round++ {
			got, err := interp.LowerFuncs(m, cfg, w)
			if err != nil {
				t.Fatalf("width %d (round %d): %v", w, round, err)
			}
			if d := interp.DiffLowered(serial, got); d != "" {
				t.Fatalf("width %d (round %d) differs from width 1: %s", w, round, d)
			}
		}
	}

	// The lower-indexed bad body is the largest one, broken only at its
	// very end (the closing end is missing), so it fails last; its neighbour
	// fails on its first instruction. Reporting whichever error arrives
	// first would name the neighbour.
	bad := *m
	bad.Funcs = append([]wasm.Func(nil), m.Funcs...)
	lo := 0
	for i := range bad.Funcs[:len(bad.Funcs)-1] {
		if len(bad.Funcs[i].Body) > len(bad.Funcs[lo].Body) {
			lo = i
		}
	}
	body := bad.Funcs[lo].Body
	bad.Funcs[lo].Body = body[:len(body)-1]
	bad.Funcs[lo+1].Body = []wasm.Instr{{Op: wasm.OpDrop}, {Op: wasm.OpEnd}}
	want := fmt.Sprintf("interp: function %d: ", lo)
	for w := 1; w <= runtime.GOMAXPROCS(0)+2; w++ {
		for round := 0; round < 3; round++ {
			_, err := interp.LowerFuncs(&bad, cfg, w)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("width %d (round %d): error %v, want prefix %q", w, round, err, want)
			}
		}
	}
}
