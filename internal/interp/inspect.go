package interp

import "wasabi/internal/wasm"

// StackHighWater compiles every defined function of m and returns the compile
// pass's exact operand-stack high-water mark per defined function — the exact
// buffer size exec allocates (there is no slack; see exec.go). The numbers
// are independent of guard/fusion/host-elision settings, which only rewrite
// the emitted code, so the plain configuration used here is representative.
// It exists so the static dataflow pass (internal/static) can be asserted
// equal to the interpreter's own height tracking, and for inspection tooling.
func StackHighWater(m *wasm.Module) ([]int, error) {
	code, err := lowerFuncs(m, nil, &Config{}, 0)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(code))
	for i, cf := range code {
		out[i] = cf.maxStack
	}
	return out, nil
}
