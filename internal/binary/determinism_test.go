package binary

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// TestEncodeDeterministic asserts that the code section does not depend on
// the width of the per-function worker pool: every width from 1 to
// GOMAXPROCS+2, over several rounds, encodes the instrumented 256 KB
// synthetic app to the same bytes, and a module with two unencodable bodies
// always reports the lower function index.
func TestEncodeDeterministic(t *testing.T) {
	m := synthapp.Generate(synthapp.Config{TargetBytes: 256 << 10, Seed: 7})
	m, _, err := core.Instrument(m, core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := encode(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 2; w <= runtime.GOMAXPROCS(0)+2; w++ {
		for round := 0; round < 3; round++ {
			got, err := encode(m, w)
			if err != nil {
				t.Fatalf("width %d (round %d): %v", w, round, err)
			}
			if !bytes.Equal(serial, got) {
				t.Fatalf("width %d (round %d) encodes different bytes than width 1", w, round)
			}
		}
	}

	// The lower-indexed bad body is the largest one, broken only at its last
	// instruction, so it fails last; its neighbour fails on its first
	// instruction. Reporting whichever error arrives first would name the
	// neighbour.
	const unknown = wasm.Opcode(0xFF)
	if unknown.Known() || unknown == wasm.OpMiscPrefix {
		t.Fatalf("opcode %#x is encodable", byte(unknown))
	}
	bad := *m
	bad.Funcs = append([]wasm.Func(nil), m.Funcs...)
	lo := 0
	for i := range bad.Funcs[:len(bad.Funcs)-1] {
		if len(bad.Funcs[i].Body) > len(bad.Funcs[lo].Body) {
			lo = i
		}
	}
	body := append([]wasm.Instr(nil), bad.Funcs[lo].Body...)
	body[len(body)-1] = wasm.Instr{Op: unknown}
	bad.Funcs[lo].Body = body
	bad.Funcs[lo+1].Body = []wasm.Instr{{Op: unknown}, {Op: wasm.OpEnd}}
	want := fmt.Sprintf("binary: function %d: ", lo)
	for w := 1; w <= runtime.GOMAXPROCS(0)+2; w++ {
		for round := 0; round < 3; round++ {
			_, err := encode(&bad, w)
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Fatalf("width %d (round %d): error %v, want prefix %q", w, round, err, want)
			}
		}
	}
}
