package wasabi_test

// The paper's micro-benchmarks live in one table, experiments.Benches:
// Table 5 instrumentation throughput, Figure 8 size per hook, Figure 9
// runtime per hook (baseline, per hook set, coverage), §4.5
// monomorphization, call/return value vectors, event-stream delivery, fuel
// metering, fan-out, the record sink and parallel instrumentation. Each
// benchmark below runs one group of it, so table entry "Fig9/Baseline" is
// BenchmarkFig9/Baseline here. `go run ./cmd/wasabi-bench -ledger
// BENCH_ledger.json` samples the same table into the committed ledger.

import (
	"strings"
	"testing"

	"wasabi/internal/experiments"
)

func runGroup(b *testing.B, group string) {
	for _, e := range experiments.Benches {
		if name, ok := strings.CutPrefix(e.Name, group+"/"); ok {
			b.Run(name, e.F)
		}
	}
}

func BenchmarkTable5(b *testing.B)     { runGroup(b, "Table5") }
func BenchmarkFig8(b *testing.B)       { runGroup(b, "Fig8") }
func BenchmarkFig9(b *testing.B)       { runGroup(b, "Fig9") }
func BenchmarkMono(b *testing.B)       { runGroup(b, "Mono") }
func BenchmarkCallReturn(b *testing.B) { runGroup(b, "CallReturn") }
func BenchmarkStream(b *testing.B)     { runGroup(b, "Stream") }
func BenchmarkFuel(b *testing.B)       { runGroup(b, "Fuel") }
func BenchmarkFanout(b *testing.B)     { runGroup(b, "Fanout") }
func BenchmarkSink(b *testing.B)       { runGroup(b, "Sink") }
func BenchmarkParallel(b *testing.B)   { runGroup(b, "Parallel") }
