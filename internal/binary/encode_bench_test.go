package binary

import (
	"testing"

	"wasabi/internal/analysis"
	"wasabi/internal/core"
	"wasabi/internal/synthapp"
)

// BenchmarkEncode_Instrumented times encoding a synthapp module instrumented
// with every hook: both encoder passes (measure, then write) visit every
// instruction of a hook-call-dense body.
func BenchmarkEncode_Instrumented(b *testing.B) {
	m, _, err := core.Instrument(synthapp.Generate(synthapp.Config{TargetBytes: 256 << 10, Seed: 1}),
		core.Options{Hooks: analysis.AllHooks})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}
