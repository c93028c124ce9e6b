// Command wasabi-bench regenerates the tables and figures of the paper's
// evaluation section. Each experiment prints the same rows/series the paper
// reports; -ledger samples the benchmark table into BENCH_ledger.json.
//
// Usage:
//
//	wasabi-bench -experiment table4|rq2|table5|fig8|mono|fig9|all [-full]
//	wasabi-bench -ledger BENCH_ledger.json   (sample the benchmark table)
//	wasabi-bench -sessions N    (instrument once, N concurrent sessions)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"wasabi/internal/experiments"
)

func main() {
	exp := flag.String("experiment", "all", "table4 | rq2 | table5 | fig8 | mono | fig9 | all")
	full := flag.Bool("full", false, "paper-scale binary sizes (9.6 MB / 39.5 MB; slow)")
	polyN := flag.Int("n", 0, "override PolyBench problem size")
	reps := flag.Int("reps", 0, "override timing repetitions")
	ledger := flag.String("ledger", "", "sample every entry of the benchmark table and write the ledger (e.g. BENCH_ledger.json); skips the experiments")
	sessions := flag.Int("sessions", 0, "instrument once and run N concurrent sessions off the one CompiledAnalysis; skips the experiments")
	flag.Parse()

	if *ledger != "" {
		l, err := experiments.RunLedger(experiments.LedgerRuns, os.Stderr)
		if err == nil {
			err = l.WriteFile(*ledger)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -ledger: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *sessions > 0 {
		if err := runSessions(*sessions); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: -sessions: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperScale()
	}
	if *polyN > 0 {
		cfg.PolyN = int32(*polyN)
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}

	run := func(name string, f func() error) {
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "wasabi-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	w := os.Stdout
	all := *exp == "all"
	if all || *exp == "table4" {
		run("table4", func() error { return experiments.Table4(w) })
	}
	if all || *exp == "rq2" {
		run("rq2", func() error { return experiments.RQ2(w, cfg) })
	}
	if all || *exp == "table5" {
		run("table5", func() error { return experiments.Table5(w, cfg) })
	}
	if all || *exp == "fig8" {
		run("fig8", func() error { return experiments.Fig8(w, cfg) })
	}
	if all || *exp == "mono" {
		run("mono", func() error { return experiments.Mono(w, cfg) })
	}
	if all || *exp == "fig9" {
		run("fig9", func() error { return experiments.Fig9(w, cfg, nil) })
	}
}
