package interp

import (
	"fmt"
	"slices"

	"wasabi/internal/wasm"
)

// LowerFuncs runs the lowering pass alone at the given width. It is exported
// only to the package's external tests, which build their modules with
// internal/synthapp (an importer of this package).
func LowerFuncs(m *wasm.Module, cfg Config, workers int) ([]*compiledFunc, error) {
	return lowerFuncs(m, nil, &cfg, workers)
}

// DiffLowered describes the first function whose lowered code, br_table
// pool or operand-stack high-water mark differs between a and b, or returns
// "" when the two lowerings are identical.
func DiffLowered(a, b []*compiledFunc) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d functions vs %d", len(a), len(b))
	}
	for i := range a {
		switch {
		case !slices.Equal(a[i].code, b[i].code):
			return fmt.Sprintf("function %d: code differs", i)
		case !slices.Equal(a[i].brPool, b[i].brPool):
			return fmt.Sprintf("function %d: br_table pool differs", i)
		case a[i].maxStack != b[i].maxStack:
			return fmt.Sprintf("function %d: maxStack %d vs %d", i, a[i].maxStack, b[i].maxStack)
		}
	}
	return ""
}
