// Command wasabi-run executes a WebAssembly module on the bundled
// interpreter under one of the bundled dynamic analyses, then prints the
// analysis report. It is the "browser plus analysis script" of the paper's
// workflow collapsed into one binary.
//
// Usage:
//
//	wasabi-run [-analysis name] [-invoke func] [-arg N] module.wasm
//	wasabi-run -workload gemm -analysis instruction-mix     (built-in workloads)
//	wasabi-run -wasi [-args "a b c"] command.wasm           (WASI preview1 binaries)
//	wasabi-run -record out.evlog -workload gemm             (record the event stream;
//	                                                         replay with wasabi-replay)
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/binary"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
	"wasabi/internal/synthapp"
	"wasabi/internal/wasm"
)

// reporter is implemented by all bundled analyses that can print results.
type reporter interface{ Report(w io.Writer) }

func main() {
	analysisName := flag.String("analysis", "instruction-mix", "analysis to run (see -list)")
	invoke := flag.String("invoke", "", "exported function to invoke (default: kernel or main)")
	arg := flag.Int("arg", 32, "i32 argument for the invoked function (if it takes one)")
	workload := flag.String("workload", "", "built-in workload: a PolyBench kernel name or \"synthapp\"")
	n := flag.Int("n", 16, "problem size for built-in workloads")
	list := flag.Bool("list", false, "list bundled analyses and workloads")
	wasiMode := flag.Bool("wasi", false, "run the module as a WASI preview1 command (_start entry, captured stdio)")
	wasiArgs := flag.String("args", "", "space-separated program arguments for -wasi (argv[0] is the module path)")
	wasiSeed := flag.Int64("seed", 0, "random_get seed for -wasi")
	record := flag.String("record", "", "record the event stream to a segment file instead of dispatching callbacks (replay with wasabi-replay)")
	flag.Parse()

	if *list {
		fmt.Println("analyses:")
		for _, name := range analyses.Names() {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("workloads: synthapp,")
		for _, k := range polybench.Kernels() {
			fmt.Printf("  %s\n", k.Name)
		}
		return
	}

	var m *wasm.Module
	entry := *invoke
	switch {
	case *workload == "synthapp":
		m = synthapp.Generate(synthapp.Config{TargetBytes: 100_000, Seed: 1})
		if entry == "" {
			entry = "main"
		}
	case *workload != "":
		k, ok := polybench.ByName(*workload)
		if !ok {
			fatal("unknown workload %q", *workload)
		}
		m = k.Module(int32(*n))
		if entry == "" {
			entry = "kernel"
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal("%v", err)
		}
		m, err = binary.Decode(data)
		if err != nil {
			fatal("decode: %v", err)
		}
		if entry == "" {
			entry = "main"
		}
	default:
		fatal("need a module file or -workload (try -list)")
	}

	a, err := analyses.New(*analysisName)
	if err != nil {
		fatal("%v", err)
	}
	var engineOpts []wasabi.EngineOption
	if *wasiMode {
		argv := []string{flag.Arg(0)}
		if *wasiArgs != "" {
			argv = append(argv, strings.Fields(*wasiArgs)...)
		}
		engineOpts = append(engineOpts, wasabi.WithWASI(wasabi.WASIConfig{
			Args:       argv,
			RandomSeed: *wasiSeed,
		}))
		if entry == "main" && *invoke == "" {
			entry = "_start" // the preview1 command entry point
		}
	}
	engine, err := wasabi.NewEngine(engineOpts...)
	if err != nil {
		fatal("%v", err)
	}
	compiled, err := engine.InstrumentFor(m, a)
	if err != nil {
		fatal("instrument: %v", err)
	}
	sess, err := compiled.NewSession(a)
	if err != nil {
		fatal("bind analysis: %v", err)
	}
	// -record switches the session to stream delivery before the first
	// Instantiate: hooks append packed records instead of calling the
	// analysis, and a serving goroutine appends every batch to the segment
	// file. The event classes recorded are what the chosen analysis would
	// have observed (-analysis empty records everything).
	var (
		stream  *wasabi.Stream
		rec     *sink.Writer
		recDone chan struct{}
	)
	if *record != "" {
		stream, err = sess.Stream()
		if err != nil {
			fatal("record: %v", err)
		}
		rec, err = sink.Create(*record, stream.Table())
		if err != nil {
			fatal("record: %v", err)
		}
		recDone = make(chan struct{})
		go func() {
			defer close(recDone)
			stream.Serve(rec)
		}()
	}
	inst, err := sess.Instantiate("main", polybench.HostImports(nil))
	if err != nil {
		fatal("instantiate: %v", err)
	}

	ft, err := funcSig(m, entry)
	if err != nil {
		fatal("%v", err)
	}
	var args []interp.Value
	if len(ft.Params) == 1 && ft.Params[0] == wasm.I32 {
		args = append(args, interp.I32(int32(*arg)))
	}
	res, err := inst.Invoke(entry, args...)
	exitCode := 0
	if err != nil {
		var xe *wasabi.ExitError
		if *wasiMode && errors.As(err, &xe) {
			// proc_exit is the normal way a WASI command ends; its code is
			// the run's exit status, not an invocation failure.
			exitCode = int(xe.Code)
		} else {
			fatal("invoke %s: %v", entry, err)
		}
	}
	if *wasiMode {
		w := sess.WASI()
		os.Stdout.Write(w.Stdout())
		os.Stderr.Write(w.Stderr())
	}
	if len(res) > 0 {
		fmt.Printf("%s returned %v values; raw: %v\n", entry, len(res), res)
	}
	if *record != "" {
		// End the stream (flush + close), join the recorder, commit the file.
		stream.Close()
		<-recDone
		if err := rec.Close(); err != nil {
			fatal("record %s: %v", *record, err)
		}
		fmt.Printf("recorded %d events to %s (inspect with wasabi-replay)\n", rec.Count(), *record)
		// Callbacks did not fire under stream delivery, so the analysis
		// report would be empty; the recording replaces it.
	} else {
		fmt.Printf("--- %s report ---\n", *analysisName)
		if r, ok := a.(reporter); ok {
			r.Report(os.Stdout)
		} else {
			fmt.Println("(analysis has no report)")
		}
	}
	if exitCode != 0 {
		os.Exit(exitCode)
	}
}

func funcSig(m *wasm.Module, name string) (wasm.FuncType, error) {
	idx, ok := m.ExportedFunc(name)
	if !ok {
		return wasm.FuncType{}, fmt.Errorf("no exported function %q", name)
	}
	return m.IndexSpace().FuncType(idx)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wasabi-run: "+format+"\n", args...)
	os.Exit(1)
}
