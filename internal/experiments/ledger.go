package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"testing"
)

// LedgerRuns is how many samples `wasabi-bench -ledger` takes of every
// table entry.
const LedgerRuns = 5

// Ledger is the schema of BENCH_ledger.json: every table entry sampled
// LedgerRuns times, one row per entry and unit, under a header naming the
// toolchain and machine that measured it.
type Ledger struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	// Rows is keyed by RowKey.
	Rows map[string]Row `json:"rows"`
}

// Row summarizes the samples of one unit of one entry.
type Row struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
}

// RowKey is the ledger key of one unit of one entry, e.g.
// "Fig9/Baseline ns/op".
func RowKey(name, unit string) string { return name + " " + unit }

// Sample runs e once under testing.Benchmark and returns every unit it
// reported, which must be exactly the units it declares.
func Sample(e Bench) (map[string]float64, error) {
	r := testing.Benchmark(e.F)
	if r.N == 0 {
		return nil, fmt.Errorf("%s: benchmark failed", e.Name)
	}
	got := map[string]float64{
		"ns/op":     float64(r.T.Nanoseconds()) / float64(r.N),
		"B/op":      float64(r.AllocedBytesPerOp()),
		"allocs/op": float64(r.AllocsPerOp()),
	}
	if r.Bytes > 0 {
		got["MB/s"] = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
	}
	for unit, v := range r.Extra {
		got[unit] = v
	}
	units := e.Units()
	for _, u := range units {
		if _, ok := got[u]; !ok {
			return nil, fmt.Errorf("%s: declares unit %q but did not report it", e.Name, u)
		}
	}
	if len(got) != len(units) {
		return nil, fmt.Errorf("%s: reported %d units, declares %v", e.Name, len(got), units)
	}
	return got, nil
}

// RunLedger samples every entry runs times. It goes round robin over the
// table, so drift during the run spreads over every row instead of biasing
// the entries sampled last.
func RunLedger(runs int, progress io.Writer) (*Ledger, error) {
	samples := map[string][]float64{}
	for run := 1; run <= runs; run++ {
		for _, e := range Benches {
			got, err := Sample(e)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(progress, "ledger %d/%d: %-34s %14.0f ns/op\n", run, runs, e.Name, got["ns/op"])
			for unit, v := range got {
				k := RowKey(e.Name, unit)
				samples[k] = append(samples[k], v)
			}
		}
	}
	l := &Ledger{
		Go: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Rows: make(map[string]Row, len(samples)),
	}
	for k, xs := range samples {
		l.Rows[k] = summarize(xs)
	}
	return l, nil
}

// summarize sorts xs and reads its quartiles by linear interpolation
// between closest ranks.
func summarize(xs []float64) Row {
	sort.Float64s(xs)
	q := func(p float64) float64 {
		pos := p * float64(len(xs)-1)
		i := int(pos)
		if i+1 == len(xs) {
			return xs[i]
		}
		return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
	}
	return Row{Median: q(0.5), P25: q(0.25), P75: q(0.75), Min: xs[0], N: len(xs)}
}

// WriteFile writes l as indented JSON; rows come out sorted by key.
func (l *Ledger) WriteFile(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadLedger reads a ledger written by WriteFile.
func ReadLedger(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l Ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}
