package interp

import (
	"fmt"

	"wasabi/internal/wasm"
)

// StackHighWater compiles every defined function of m and returns the compile
// pass's exact operand-stack high-water mark per defined function — the exact
// buffer size exec allocates (there is no slack; see exec.go). The numbers
// are independent of guard/fusion/host-elision settings, which only rewrite
// the emitted code, so the plain configuration used here is representative.
// It exists so the static dataflow pass (internal/static) can be asserted
// equal to the interpreter's own height tracking, and for inspection tooling.
func StackHighWater(m *wasm.Module) ([]int, error) {
	cfg := Config{}
	ix := m.IndexSpace()
	buf := compileBufPool.Get().(*compileBuffers)
	defer compileBufPool.Put(buf)
	out := make([]int, len(m.Funcs))
	for di := range m.Funcs {
		f := &m.Funcs[di]
		if int(f.TypeIdx) >= len(m.Types) {
			return nil, fmt.Errorf("interp: func %d: type index %d out of range", ix.NumImportedFuncs+di, f.TypeIdx)
		}
		cf, err := compileFunc(ix, m.Types[f.TypeIdx], f, nil, &cfg, buf)
		if err != nil {
			return nil, fmt.Errorf("interp: func %d: %w", ix.NumImportedFuncs+di, err)
		}
		out[di] = cf.maxStack
	}
	return out, nil
}
