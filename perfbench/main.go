// Command perfbench is the repository's end-to-end benchmark. It drives one
// workload through the public pipeline, one unit at a time in a closed loop
// (a unit starts only after the previous one finished), for a fixed number
// of seconds, and checks every unit's result against an independent
// reference.
//
// A unit runs each of the workload's programs cold, twice: from module
// bytes to instrumented bytes (the wasabi CLI's path, paper Table 5), and
// from module bytes to a verified analysis result (Engine.InstrumentBytes,
// NewSession, Session.Instantiate, Invoke, then the check). Stream programs
// are then replayed from their recorded segment.
//
// Workloads:
//
//	go-wasip1-full       a real Go wasip1 binary, all hooks, instruction-mix
//	go-wasip1-selective  the same binary, WithStaticAnalysis, branch-coverage
//	polybench-stream     every PolyBench kernel in seeded order, all hooks,
//	                     delivered as records: a fan-out to a stream
//	                     instruction mix and a segment writer, then a replay
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced and traced units, records spans around each layer's
// exported entry points, writes them to the work directory, and reports
// the per-layer metrics (see layerMetrics for which end-to-end metric each
// should move). The last line of standard output is one JSON object.
//
// The guest program is built by run.py, which also builds this command;
// run the benchmark from the repository root with
//
//	python3 perfbench/run.py --workload go-wasip1-full --seed 1 --seconds 15 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef is a per-layer metric and, as written down before measuring,
// the end-to-end metric it should move and the workload that exercises it.
type metricDef struct {
	name, unit string
	moves, on  string
}

var layerMetrics = []metricDef{
	{"binary.decode_s", "s", "instrument_s, analyze_s", "go-wasip1-*"},
	{"validate.module_s", "s", "instrument_s, analyze_s", "go-wasip1-*"},
	{"static.plan_s", "s", "instrument_s, analyze_s", "go-wasip1-selective (0 elsewhere)"},
	{"core.instrument_s", "s", "instrument_s, analyze_s", "go-wasip1-full"},
	{"core.instrument_alloc_mb", "MB", "alloc_mb", "go-wasip1-full"},
	{"core.hook_sites", "count", "code_growth, instantiate_s", "all"},
	{"binary.bytes_in", "count", "code_growth", "all"},
	{"binary.bytes_out", "count", "code_growth, instantiate_s", "all"},
	{"binary.encode_s", "s", "instrument_s", "go-wasip1-full"},
	{"engine.instrument_bytes_s", "s", "analyze_s", "all (the bundle of decode..instrument)"},
	{"interp.instantiate_s", "s", "instantiate_s, analyze_s, peak_rss_mb", "go-wasip1-full"},
	{"interp.instantiate_alloc_mb", "MB", "alloc_mb, peak_rss_mb", "go-wasip1-full"},
	{"interp.exec_plain_s", "s", "run_s", "go-wasip1-selective"},
	{"run.overhead_ratio", "ratio", "run_s", "all (base: interp.exec_plain_s)"},
	{"runtime.events", "count", "run_s", "polybench-stream"},
	{"runtime.events_per_s", "1/s", "run_s", "polybench-stream"},
	{"fabric.sub_busy_s", "s", "run_s", "polybench-stream"},
	{"fabric.sub_wait_s", "s", "run_s", "polybench-stream"},
	{"fabric.dropped", "count", "error_rate", "polybench-stream"},
	{"sink.write_busy_s", "s", "run_s", "polybench-stream"},
	{"sink.close_s", "s", "run_s", "polybench-stream"},
	{"sink.bytes", "count", "run_s", "polybench-stream"},
	{"sink.open_s", "s", "replay_s", "polybench-stream"},
	{"sink.serve_s", "s", "replay_s", "polybench-stream"},
	{"replay_s", "s", "(end to end, polybench-stream only)", "polybench-stream"},
	{"wasi.calls", "count", "run_s", "go-wasip1-*"},
	{"wasi.busy_s", "s", "run_s", "go-wasip1-*"},
	{"gc.cycles", "count", "alloc_mb, analyze_s", "go-wasip1-full"},
	{"gc.pause_s", "s", "alloc_mb, analyze_s", "go-wasip1-full"},
	{"trace.analyze_s", "s", "(traced analyze_s)", "all"},
	{"trace.overhead_s", "s", "(traced - untraced analyze_s)", "all"},
	{"trace.accounted_share", "ratio", "(layer self times / traced analyze_s)", "all"},
	{"unit.error_rate", "ratio", "(failed / attempted units)", "all"},
}

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	guestWasm   string
	guestNative string
	workDir     string
	buildS      float64
	source      string
	commit      string
}

func main() {
	procStart := time.Now()
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.guestWasm, "guest-wasm", "", "the guest program built for wasip1")
	flag.StringVar(&o.guestNative, "guest-native", "", "the guest program built for this host")
	flag.StringVar(&o.workDir, "work-dir", "", "directory for segments and the span file")
	flag.Float64Var(&o.buildS, "toolchain-build-s", -1, "seconds the guest build took (-1: reused)")
	flag.StringVar(&o.source, "source", "", "digest of the sources the benchmark was built from")
	flag.StringVar(&o.commit, "commit", "unknown", "commit of the sources")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, procStart); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, procStart time.Time) error {
	w, ok := workloadByName(o.workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, w := range workloads {
			names[i] = w.name
		}
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.workDir == "" {
		return fmt.Errorf("-work-dir is required")
	}
	var guestWasm []byte
	if w.guestSize > 0 {
		var err error
		if guestWasm, err = os.ReadFile(o.guestWasm); err != nil {
			return fmt.Errorf("guest: %w", err)
		}
	}
	segDir, err := os.MkdirTemp(o.workDir, "segments-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(segDir)
	tr := newTracer(procStart)

	// Set up once, cold: setup_s runs from process start to the first
	// timed unit. It generates the inputs, runs the native reference,
	// creates the engine and runs one warm-up unit, which is discarded.
	var (
		attempted, failed  int
		firstErr           error
		untracedU, tracedU []unitResult
	)
	count := func(r unitResult) {
		attempted++
		if r.err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("unit %d: %w", r.id, r.err)
			}
		}
	}
	progs, err := inputs(w, o.seed, guestWasm, o.guestNative)
	if err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	eng, err := w.newEngine()
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	b := &bench{w: w, progs: progs, eng: eng, segDir: segDir, tr: tr}
	count(b.runUnit(-1, false))
	setupS := time.Since(procStart).Seconds()

	// The closed loop: untraced units, or alternating untraced and traced
	// units in a traced run.
	minUnits := 3
	if o.trace {
		minUnits = 4
	}
	loopStart := time.Now()
	for i := 0; i < minUnits || time.Since(loopStart).Seconds() < o.seconds; i++ {
		traced := o.trace && i%2 == 1
		r := b.runUnit(i, traced)
		count(r)
		if traced {
			tracedU = append(tracedU, r)
		} else {
			untracedU = append(untracedU, r)
		}
	}
	peakRSS := peakRSSMB()

	inputHash := sha256.New()
	for _, p := range b.progs {
		inputHash.Write(p.wasm)
	}
	refHash := sha256.New()
	for _, p := range b.progs {
		refHash.Write(p.stdout)
		fmt.Fprintf(refHash, "%v\n", p.checksum)
	}
	meta := map[string]any{
		"workload":     w.name,
		"seed":         o.seed,
		"seconds":      o.seconds,
		"trace":        o.trace,
		"go":           runtime.Version(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"commit":       o.commit,
		"source":       o.source,
		"input_sha256": hex.EncodeToString(inputHash.Sum(nil)),
		"reference":    hex.EncodeToString(refHash.Sum(nil)),
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v\n", w.name, o.seed, o.seconds, o.trace)
	fmt.Printf("env go=%s nproc=%d GOMAXPROCS=%d commit=%s source=%s\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.commit, o.source)
	if w.guestSize > 0 {
		sum := sha256.Sum256(guestWasm)
		fmt.Printf("input guest.wasm sha256=%x bytes=%d argv=%q native-stdout-bytes=%d\n",
			sum, len(guestWasm), b.progs[0].args, len(b.progs[0].stdout))
	} else {
		names := make([]string, len(b.progs))
		for i, p := range b.progs {
			names[i] = p.name
		}
		fmt.Printf("input polybench N=%d draw=%s\n", polybenchN, strings.Join(names, ","))
	}
	fmt.Printf("input sha256=%s reference sha256=%s\n", meta["input_sha256"], meta["reference"])
	if o.buildS >= 0 {
		fmt.Printf("toolchain build of the guest: %.3f s (not part of setup_s)\n", o.buildS)
	} else {
		fmt.Println("toolchain build of the guest: reused from an earlier run (not part of setup_s)")
	}
	fmt.Printf("closed loop, 1 client: 1 cold setup, %d untraced and %d traced units in %.1f s\n",
		len(untracedU), len(tracedU), time.Since(loopStart).Seconds())

	metrics := map[string]any{}
	report := func(name, unit string, xs []float64) {
		s := summarize(xs)
		fmt.Printf("  %-28s %-6s median %-12.6g p25 %-12.6g p75 %-12.6g max %-12.6g n=%d\n",
			name, unit, s.median, s.p25, s.p75, s.max, s.n)
		metrics[name] = map[string]any{"value": s.median, "unit": unit}
	}
	errorRate := float64(failed) / float64(attempted)
	if !o.trace {
		fmt.Println("end-to-end metrics (median over untraced units):")
		pick := func(f func(unitResult) float64) []float64 {
			xs := make([]float64, len(untracedU))
			for i, r := range untracedU {
				xs[i] = f(r)
			}
			return xs
		}
		report("setup_s", "s", []float64{setupS})
		report("analyze_s", "s", pick(func(r unitResult) float64 { return r.analyze }))
		report("instrument_s", "s", pick(func(r unitResult) float64 { return r.instrument }))
		report("instantiate_s", "s", pick(func(r unitResult) float64 { return r.instantiate }))
		report("run_s", "s", pick(func(r unitResult) float64 { return r.run }))
		report("code_growth", "x", pick(func(r unitResult) float64 { return float64(r.bytesOut) / float64(r.bytesIn) }))
		report("alloc_mb", "MB", pick(func(r unitResult) float64 { return r.allocMB }))
		report("peak_rss_mb", "MB", []float64{peakRSS})
		if w.stream {
			s := summarize(pick(func(r unitResult) float64 { return r.replay }))
			fmt.Printf("  %-28s %-6s median %-12.6g n=%d (reported per layer)\n", "replay_s", "s", s.median, s.n)
		}
		fmt.Printf("  %-28s %-6s %g (%d of %d units failed)\n", "error_rate", "ratio", errorRate, failed, attempted)
	} else {
		layers, err := layerReport(tr, tracedU, untracedU)
		if err != nil {
			return err
		}
		fmt.Println("per-layer metrics (median over traced units; moves -> end-to-end metric, on workload):")
		for _, d := range layerMetrics {
			xs := layers[d.name]
			if d.name == "unit.error_rate" {
				xs = []float64{errorRate}
			}
			report(d.name, d.unit, xs)
			fmt.Printf("  %-28s moves %s on %s\n", "", d.moves, d.on)
		}
		spanPath := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
		tr.mu.Lock()
		spans := tr.spans
		tr.mu.Unlock()
		if err := writeSpans(spanPath, meta, spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), spanPath)
	}
	if firstErr != nil {
		fmt.Println("first failure:", firstErr)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// layerReport turns the traced units' spans and counters into per-layer
// values, one per traced unit.
func layerReport(tr *tracer, traced, untraced []unitResult) (map[string][]float64, error) {
	tr.mu.Lock()
	selfTimes(tr.spans)
	spans := tr.spans
	tr.mu.Unlock()
	out := map[string][]float64{}
	self := map[string]map[int]float64{}
	selfOf := func(name string, unit int) float64 {
		m, ok := self[name]
		if !ok {
			m = selfByUnit(spans, name)
			self[name] = m
		}
		return m[unit]
	}
	spanMetrics := map[string]string{
		"binary.decode_s":           "binary.decode",
		"validate.module_s":         "validate.module",
		"static.plan_s":             "static.plan",
		"core.instrument_s":         "core.instrument",
		"binary.encode_s":           "binary.encode",
		"engine.instrument_bytes_s": "engine.instrument_bytes",
		"interp.instantiate_s":      "interp.instantiate",
		"interp.exec_plain_s":       "interp.exec_plain",
		"sink.close_s":              "sink.close",
		"sink.open_s":               "sink.open",
		"sink.serve_s":              "sink.serve",
	}
	// accounted are the layers whose self times should add up to the
	// traced analyze_s: the split decode..instrument standing in for the
	// bundle, then everything after it on the blocking path.
	accounted := []string{"binary.decode", "validate.module", "static.plan", "core.instrument",
		"session", "interp.instantiate", "run", "sink.close", "check"}
	var tracedAnalyze, untracedAnalyze []float64
	for _, r := range untraced {
		untracedAnalyze = append(untracedAnalyze, r.analyze)
	}
	for _, r := range traced {
		for metric, name := range spanMetrics {
			out[metric] = append(out[metric], selfOf(name, r.id))
		}
		for _, name := range []string{"core.hook_sites", "core.instrument_alloc_mb", "interp.instantiate_alloc_mb",
			"runtime.events", "fabric.sub_busy_s", "fabric.sub_wait_s", "fabric.dropped", "sink.write_busy_s",
			"sink.bytes", "wasi.calls", "wasi.busy_s", "gc.cycles", "gc.pause_s"} {
			out[name] = append(out[name], r.layer[name])
		}
		out["binary.bytes_in"] = append(out["binary.bytes_in"], float64(r.bytesIn))
		out["binary.bytes_out"] = append(out["binary.bytes_out"], float64(r.bytesOut))
		out["replay_s"] = append(out["replay_s"], r.replay)
		if plain := selfOf("interp.exec_plain", r.id); plain > 0 {
			out["run.overhead_ratio"] = append(out["run.overhead_ratio"], r.run/plain)
		}
		if r.run > 0 {
			out["runtime.events_per_s"] = append(out["runtime.events_per_s"], r.layer["runtime.events"]/r.run)
		}
		var sum float64
		for _, name := range accounted {
			sum += selfOf(name, r.id)
		}
		if r.analyze > 0 {
			out["trace.accounted_share"] = append(out["trace.accounted_share"], sum/r.analyze)
		}
		tracedAnalyze = append(tracedAnalyze, r.analyze)
	}
	out["trace.analyze_s"] = tracedAnalyze
	if len(tracedAnalyze) == 0 || len(untracedAnalyze) == 0 {
		return nil, fmt.Errorf("traced run needs traced and untraced units")
	}
	out["trace.overhead_s"] = []float64{median(tracedAnalyze) - median(untracedAnalyze)}
	for _, d := range layerMetrics {
		if _, ok := out[d.name]; !ok && d.name != "unit.error_rate" {
			return nil, fmt.Errorf("per-layer metric %s has no value", d.name)
		}
	}
	return out, nil
}
