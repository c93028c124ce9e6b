package interp_test

import (
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/synthapp"
)

// BenchmarkInstantiate_AllHooks times instantiating a synthapp module
// instrumented with every hook, against hook imports that are real calls
// (not no-ops, which the compile pass would elide). Instrumented code is
// dominated by hook calls, so this is the compile pass's call resolution
// and code-buffer growth under load.
func BenchmarkInstantiate_AllHooks(b *testing.B) {
	m, _, err := core.Instrument(synthapp.Generate(synthapp.Config{TargetBytes: 256 << 10, Seed: 1}),
		core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		b.Fatal(err)
	}
	hooks := map[string]any{}
	for _, imp := range m.Imports {
		if imp.Module == core.HookModule {
			hooks[imp.Name] = &interp.HostFunc{
				Type: m.Types[imp.TypeIdx],
				Fast: func(*interp.Instance, []interp.Value) error { return nil },
			}
		}
	}
	imports := interp.Imports{core.HookModule: hooks}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Instantiate(m, imports); err != nil {
			b.Fatal(err)
		}
	}
}
