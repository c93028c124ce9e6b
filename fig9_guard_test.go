package wasabi_test

// The Fig 9 guards are CI's interpreter-performance smoke. Each looks up the
// BENCH_ledger.json rows it gates and re-runs the same benchmark-table
// entries that produced them. They are gated behind FIG9_GUARD so ordinary
// `go test` runs stay timing-independent; TestBenchLedgerConsistent is not
// timed and always runs.

import (
	"fmt"
	"os"
	"testing"

	"wasabi"
	"wasabi/internal/experiments"
)

const ledgerPath = "BENCH_ledger.json"

// gemmFuelPerKernel is the fuel one gemm kernel invocation (n=16) burns
// under metering. Metering is deterministic, so it is pinned exactly.
const gemmFuelPerKernel = 246499

var streamGuardBench = fmt.Sprintf("Stream/batch=%d", wasabi.DefaultStreamBatchSize)

// guardedRows are the ledger rows the two guards read.
var guardedRows = [][2]string{
	{"Fig9/Baseline", "ns/op"},
	{"Fig9/PerHook/binary", "ns/op"},
	{"Fig9/PerHook/all", "ns/op"},
	{streamGuardBench, "events/s"},
	{"Fuel/unmetered", "ns/op"},
	{"Fuel/metered", "ns/op"},
	{"Fuel/metered", "fuel/op"},
}

func readLedger(t *testing.T) *experiments.Ledger {
	t.Helper()
	l, err := experiments.ReadLedger(ledgerPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `go run ./cmd/wasabi-bench -ledger %s`)", err, ledgerPath)
	}
	return l
}

func ledgerRow(t *testing.T, l *experiments.Ledger, name, unit string) experiments.Row {
	t.Helper()
	row, ok := l.Rows[experiments.RowKey(name, unit)]
	if !ok || row.Median <= 0 {
		t.Fatalf("%s has no recorded %q row", ledgerPath, experiments.RowKey(name, unit))
	}
	return row
}

// sample re-runs the table entry called name once.
func sample(t *testing.T, name string) map[string]float64 {
	t.Helper()
	e, ok := experiments.Lookup(name)
	if !ok {
		t.Fatalf("no benchmark-table entry %q", name)
	}
	got, err := experiments.Sample(e)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFig9BaselineGuard fails when the uninstrumented Fig 9 baseline ns/op,
// the `binary` or `all` hook ratio, or stream delivery at the default batch
// size has regressed more than 2x against the ledger's medians. The 2x
// margin absorbs runner-to-runner variance while still catching a real
// dispatch-loop, hook-dispatch or encode/hand-off regression.
func TestFig9BaselineGuard(t *testing.T) {
	if os.Getenv("FIG9_GUARD") == "" {
		t.Skip("set FIG9_GUARD=1 to run the Fig 9 regression guard")
	}
	l := readLedger(t)

	recorded := ledgerRow(t, l, "Fig9/Baseline", "ns/op").Median
	baseline := sample(t, "Fig9/Baseline")["ns/op"]
	t.Logf("Fig9 baseline: measured %.0f ns/op, recorded %.0f ns/op (limit %.0f)", baseline, recorded, 2*recorded)
	if baseline > 2*recorded {
		t.Errorf("Fig9 baseline regressed >2x: %.0f ns/op vs recorded %.0f ns/op", baseline, recorded)
	}

	// Ratios against the same-run baseline divide out machine speed, so the
	// 2x margin here watches the hook-dispatch path specifically.
	for _, hook := range []string{"binary", "all"} {
		name := "Fig9/PerHook/" + hook
		want := ledgerRow(t, l, name, "ns/op").Median / recorded
		ratio := sample(t, name)["ns/op"] / baseline
		t.Logf("Fig9 %s: measured ratio %.2fx, recorded %.2fx (limit %.2fx)", hook, ratio, want, 2*want)
		if ratio > 2*want {
			t.Errorf("Fig9 %s ratio regressed >2x: %.2fx vs recorded %.2fx", hook, ratio, want)
		}
	}

	// The consumer only counts records, so this guards the encode and
	// hand-off pipeline, not any analysis body.
	want := ledgerRow(t, l, streamGuardBench, "events/s").Median
	rate := sample(t, streamGuardBench)["events/s"]
	t.Logf("Fig9 stream: measured %.1f M events/s, recorded %.1f M events/s (limit %.1f M)",
		rate/1e6, want/1e6, want/2e6)
	if rate < want/2 {
		t.Errorf("Fig9 stream events/sec regressed >2x: %.0f vs recorded %.0f", rate, want)
	}
}

// TestFig9FuelOverheadGuard is the zero-overhead-when-disabled guard of the
// containment layer: fuel metering compiles to guard instructions only when
// enabled, so disabling it must cost nothing — within 5% of the ledger's
// fuel reference. A bound that tight cannot ride on absolute ns/op across
// binaries: identical interpreter code measures up to ~20% apart between
// the bench tool and the test binary (code-layout effects on the tight
// dispatch loop), which is why TestFig9BaselineGuard uses 2x margins. So
// the 5% comparison is made on the unmetered/metered ratio — numerator and
// denominator come from the same binary in the same run, so layout and
// machine drift cancel, while a stray containment check leaking into the
// disabled dispatch path moves the ratio straight up. Both sides are
// minimum-of-LedgerRuns measurements, like the ledger's min column: noise
// only ever adds time, so the minimum converges on the true cost.
func TestFig9FuelOverheadGuard(t *testing.T) {
	if os.Getenv("FIG9_GUARD") == "" {
		t.Skip("set FIG9_GUARD=1 to run the fuel-overhead guard")
	}
	l := readLedger(t)
	frozen := ledgerRow(t, l, "Fuel/unmetered", "ns/op").Min / ledgerRow(t, l, "Fuel/metered", "ns/op").Min

	bestOf := func(name string) map[string]float64 {
		var best map[string]float64
		for i := 0; i < experiments.LedgerRuns; i++ {
			if got := sample(t, name); best == nil || got["ns/op"] < best["ns/op"] {
				best = got
			}
		}
		return best
	}
	unmetered := bestOf("Fuel/unmetered")["ns/op"]
	metered := bestOf("Fuel/metered")
	if fuel := metered["fuel/op"]; fuel != gemmFuelPerKernel {
		t.Errorf("fuel consumption not deterministic across trees: %.0f fuel/kernel vs pinned %d", fuel, gemmFuelPerKernel)
	}

	rel := unmetered / metered["ns/op"]
	t.Logf("Fig9 fuel: unmetered %.0f ns/op, metered %.0f ns/op, unmetered/metered %.3f (frozen %.3f, limit %.3f)",
		unmetered, metered["ns/op"], rel, frozen, 1.05*frozen)
	if rel > 1.05*frozen {
		t.Errorf("fuel-disabled overhead >5%%: unmetered/metered %.3f vs frozen %.3f — disabled metering is no longer free",
			rel, frozen)
	}
	// A loose absolute sanity bound on the metering cost itself: the
	// per-block guard should cost nowhere near 2x.
	if ratio := metered["ns/op"] / unmetered; ratio > 2 {
		t.Errorf("fuel-metering ratio %.2fx exceeds the 2x sanity bound", ratio)
	}
}

// TestBenchLedgerConsistent checks the committed ledger against the
// benchmark table without timing anything: exactly one row per entry and
// reported unit, every row the guards read fully sampled, and the
// deterministic fuel count equal to the one the fuel guard pins.
func TestBenchLedgerConsistent(t *testing.T) {
	l := readLedger(t)
	want := map[string]bool{}
	for _, e := range experiments.Benches {
		for _, unit := range e.Units() {
			want[experiments.RowKey(e.Name, unit)] = true
		}
	}
	for k := range l.Rows {
		if !want[k] {
			t.Errorf("stale ledger row %q: no table entry reports it", k)
		}
	}
	for k := range want {
		if _, ok := l.Rows[k]; !ok {
			t.Errorf("ledger has no row %q", k)
		}
	}
	for _, r := range guardedRows {
		row := l.Rows[experiments.RowKey(r[0], r[1])]
		if row.N != experiments.LedgerRuns || row.Min <= 0 || row.P25 <= 0 || row.Median <= 0 || row.P75 <= 0 {
			t.Errorf("guarded row %q: %+v, want n=%d and positive values", experiments.RowKey(r[0], r[1]), row, experiments.LedgerRuns)
		}
	}
	fuel := l.Rows[experiments.RowKey("Fuel/metered", "fuel/op")]
	for _, v := range []float64{fuel.Min, fuel.P25, fuel.Median, fuel.P75} {
		if v != gemmFuelPerKernel {
			t.Errorf("Fuel/metered fuel/op %+v, want every value = %d", fuel, gemmFuelPerKernel)
			break
		}
	}
	if t.Failed() {
		t.Logf("regenerate with `go run ./cmd/wasabi-bench -ledger %s`", ledgerPath)
	}
}
