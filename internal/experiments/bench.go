package experiments

// The benchmark table: each micro-benchmark behind an evaluation number,
// written once. bench_test.go runs it under `go test -bench`, wasabi-bench
// -ledger samples it into BENCH_ledger.json, and the Fig 9 guards re-run
// the entries they gate. Runtime entries share one workload, PolyBench gemm
// at n=16, so their rows are directly comparable.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/builder"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
	"wasabi/internal/static"
	"wasabi/internal/wasm"
)

// Bench is one micro-benchmark. Name is both its `go test -bench` path
// (entry "Fig9/Baseline" runs as BenchmarkFig9/Baseline) and its ledger key.
type Bench struct {
	Name string
	// Metrics are the units F reports beyond ns/op, B/op and allocs/op:
	// MB/s when it calls b.SetBytes, and each b.ReportMetric unit.
	Metrics []string
	F       func(*testing.B)
}

// Units lists every unit one sample of the entry carries.
func (e Bench) Units() []string {
	return append([]string{"ns/op", "B/op", "allocs/op"}, e.Metrics...)
}

// Benches is the table, in the order the ledger samples it.
var Benches = benchTable()

// Lookup returns the entry called name.
func Lookup(name string) (Bench, bool) {
	for _, e := range Benches {
		if e.Name == name {
			return e, true
		}
	}
	return Bench{}, false
}

// The sweep axes.
var (
	streamBatchSizes = []int{256, 1024, 4096, 16384}
	fanoutSubs       = []int{1, 2, 4, 8}
	fanoutBatchSizes = []int{1024, 4096, 16384}
	parallelWorkers  = []int{1, 2, 4, 8}
)

func benchTable() []Bench {
	mbps := []string{"MB/s"}
	t := []Bench{
		{"Table5/InstrumentPolyBench", mbps, benchInstrument(gemm, false)},
		{"Table5/InstrumentApp", mbps, benchInstrument(app1M, false)},
		{"Table5/InstrumentAppStatic", mbps, benchInstrument(app1M, true)},
		{"Fig9/Baseline", nil, benchPlain},
	}
	for _, k := range []analysis.HookKind{
		analysis.KindNop, analysis.KindLoad, analysis.KindStore, analysis.KindConst,
		analysis.KindBinary, analysis.KindLocal, analysis.KindBegin, analysis.KindEnd,
	} {
		t = append(t, Bench{"Fig9/PerHook/" + k.String(), nil, benchHooks(analysis.Set(k))})
	}
	t = append(t,
		Bench{"Fig9/PerHook/all", nil, benchHooks(analysis.AllHooks)},
		Bench{"Fig9/Coverage/per_instr", []string{"hook-sites"}, benchCoverage(plainEngine)},
		Bench{"Fig9/Coverage/block_probe", []string{"hook-sites"}, benchCoverage(staticEngine)},
		Bench{"Fig8/SizePerHook/load", []string{"growth-%"}, benchSize(analysis.Set(analysis.KindLoad))},
		Bench{"Fig8/SizePerHook/binary", []string{"growth-%"}, benchSize(analysis.Set(analysis.KindBinary))},
		Bench{"Fig8/SizePerHook/all", []string{"growth-%"}, benchSize(analysis.AllHooks)},
		Bench{"Mono/InstrumentApp", []string{"MB/s", "hooks"}, benchMono},
		Bench{"CallReturn/baseline", nil, benchCallsPlain},
		Bench{"CallReturn/hooked", []string{"hook-calls/op"}, benchCallsHooked},
	)
	for _, n := range streamBatchSizes {
		t = append(t, Bench{fmt.Sprintf("Stream/batch=%d", n), []string{"events/s", "events/op"}, benchStream(n)})
	}
	t = append(t,
		Bench{"Stream/callback", []string{"events/s"}, benchCallback},
		Bench{"Fuel/unmetered", nil, benchPlain},
		Bench{"Fuel/metered", []string{"fuel/op"}, benchMetered},
	)
	for _, subs := range fanoutSubs {
		for _, n := range fanoutBatchSizes {
			t = append(t, Bench{fmt.Sprintf("Fanout/subs=%d/batch=%d", subs, n), []string{"events/s"}, benchFanout(subs, n)})
		}
	}
	t = append(t,
		Bench{"Sink/write", []string{"MB/s", "events/s", "segment-B"}, benchSinkWrite},
		Bench{"Sink/replay", []string{"MB/s", "events/s"}, benchSinkReplay},
	)
	for _, w := range parallelWorkers {
		t = append(t, Bench{fmt.Sprintf("Parallel/workers=%d", w), []string{"MB/s", "speedup"}, benchParallel(w)})
	}
	return t
}

// --- shared inputs, built on first use ---

func orPanic[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

var (
	gemm = sync.OnceValue(func() Workload {
		k, _ := polybench.ByName("gemm")
		return polyBenchWorkload(k, 16)
	})
	app1M        = sync.OnceValue(func() Workload { return AppWorkload("app-1MiB", 1<<20, 11) })
	app256K      = sync.OnceValue(func() Workload { return AppWorkload("app-256KiB", 256<<10, 11) })
	plainEngine  = sync.OnceValue(func() *wasabi.Engine { return orPanic(wasabi.NewEngine()) })
	staticEngine = sync.OnceValue(func() *wasabi.Engine { return orPanic(wasabi.NewEngine(wasabi.WithStaticAnalysis())) })
	// gemmAllHooks is gemm instrumented for every hook: the stream, fan-out
	// and callback-reference entries all run it.
	gemmAllHooks = sync.OnceValue(func() *wasabi.CompiledAnalysis {
		return orPanic(plainEngine().Instrument(gemm().Mod, wasabi.AllCaps))
	})
)

// --- Table 5, Fig 8, §4.5: instrumentation ---

// instrumentAll fully instruments m, as every Table 5 row does.
func instrumentAll(b *testing.B, m *wasm.Module, opts core.Options) *core.Metadata {
	opts.Hooks, opts.SkipValidation = analysis.AllHooks, true
	_, md, err := core.Instrument(m, opts)
	if err != nil {
		b.Fatal(err)
	}
	return md
}

// benchInstrument is a Table 5 row; with plan set, the static-analysis
// pass runs in the loop too, so the gap to the plain row is its cost.
func benchInstrument(w func() Workload, plan bool) func(*testing.B) {
	return func(b *testing.B) {
		wl := w()
		b.SetBytes(int64(len(wl.Bytes)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var opts core.Options
			if plan {
				p, err := static.PlanFor(wl.Mod, analysis.AllHooks)
				if err != nil {
					b.Fatal(err)
				}
				opts.Plan = p
			}
			instrumentAll(b, wl.Mod, opts)
		}
	}
}

// benchSize instruments and encodes gemm for one hook set: one Figure 8
// data point, reported as its size increase in percent.
func benchSize(set analysis.HookSet) func(*testing.B) {
	return func(b *testing.B) {
		var growth float64
		for i := 0; i < b.N; i++ {
			var err error
			if growth, err = sizeIncrease(gemm(), set); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(growth, "growth-%")
	}
}

// benchMono fully instruments the signature-diverse app, where on-demand
// monomorphization of call hooks dominates (§4.5).
func benchMono(b *testing.B) {
	wl := app256K()
	b.SetBytes(int64(len(wl.Bytes)))
	b.ResetTimer()
	var md *core.Metadata
	for i := 0; i < b.N; i++ {
		md = instrumentAll(b, wl.Mod, core.Options{})
	}
	if len(md.Hooks) < 50 {
		b.Fatalf("expected substantial hook monomorphization, got %d hooks", len(md.Hooks))
	}
	b.ReportMetric(float64(len(md.Hooks)), "hooks")
}

// benchParallel instruments the 1 MiB app with the given worker count.
// Each iteration also instruments serially, untimed, so "speedup" is a
// paired ratio that machine drift cancels out of.
func benchParallel(workers int) func(*testing.B) {
	return func(b *testing.B) {
		wl := app1M()
		b.SetBytes(int64(len(wl.Bytes)))
		var serial time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			start := time.Now()
			instrumentAll(b, wl.Mod, core.Options{Parallelism: 1})
			serial += time.Since(start)
			b.StartTimer()
			instrumentAll(b, wl.Mod, core.Options{Parallelism: workers})
		}
		b.ReportMetric(serial.Seconds()/b.Elapsed().Seconds(), "speedup")
	}
}

// --- Figure 9: runtime per hook ---

// runKernel times b.N invocations of gemm's kernel on inst.
func runKernel(b *testing.B, inst *interp.Instance) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("kernel"); err != nil {
			b.Fatal(err)
		}
	}
}

// newSession binds a to ca for the rest of the benchmark run.
func newSession(b *testing.B, ca *wasabi.CompiledAnalysis, a any) *wasabi.Session {
	sess, err := ca.NewSession(a)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sess.Close() })
	return sess
}

// instantiate instantiates sess with gemm's host imports.
func instantiate(b *testing.B, sess *wasabi.Session) *interp.Instance {
	inst, err := sess.Instantiate("", polybench.HostImports(nil))
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchPlain runs gemm uninstrumented: the Fig 9 baseline every ratio is
// relative to, and the unmetered side of the fuel comparison (no guard
// instructions are compiled at all).
func benchPlain(b *testing.B) {
	inst, err := interp.Instantiate(gemm().Mod, polybench.HostImports(nil))
	if err != nil {
		b.Fatal(err)
	}
	runKernel(b, inst)
}

// benchHooks runs gemm instrumented for set with the empty analysis.
func benchHooks(set analysis.HookSet) func(*testing.B) {
	return func(b *testing.B) {
		ca, err := plainEngine().InstrumentHooks(gemm().Mod, set)
		if err != nil {
			b.Fatal(err)
		}
		runKernel(b, instantiate(b, newSession(b, ca, &analyses.Empty{})))
	}
}

// benchCoverage runs gemm under instruction coverage: per-instruction hooks
// on the plain engine, one block probe per reachable CFG block on the
// static-analysis engine.
func benchCoverage(engine func() *wasabi.Engine) func(*testing.B) {
	return func(b *testing.B) {
		ca, err := engine().InstrumentFor(gemm().Mod, analyses.NewInstructionCoverage())
		if err != nil {
			b.Fatal(err)
		}
		sites := hookSites(ca)
		runKernel(b, instantiate(b, newSession(b, ca, analyses.NewInstructionCoverage())))
		b.ReportMetric(float64(sites), "hook-sites")
	}
}

// hookSites counts the calls to hook imports in an instrumented module.
func hookSites(ca *wasabi.CompiledAnalysis) int {
	md := ca.Metadata()
	lo, hi := uint32(md.NumImportedFuncs), uint32(md.NumImportedFuncs+len(md.Hooks))
	n := 0
	for _, f := range ca.Module().Funcs {
		for _, ins := range f.Body {
			if ins.Op == wasm.OpCall && ins.Idx >= lo && ins.Idx < hi {
				n++
			}
		}
	}
	return n
}

// benchMetered runs gemm compiled with fuel metering (one fused guard per
// basic block) and reports the fuel one invocation burns.
func benchMetered(b *testing.B) {
	const budget = 1 << 40
	inst, err := interp.InstantiateWith(nil, "", gemm().Mod, polybench.HostImports(nil),
		interp.Config{Guarded: true, Fuel: budget})
	if err != nil {
		b.Fatal(err)
	}
	var used uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.SetFuel(budget)
		if _, err := inst.Invoke("kernel"); err != nil {
			b.Fatal(err)
		}
		used += budget - inst.Fuel()
	}
	b.ReportMetric(float64(used)/float64(b.N), "fuel/op")
}

// --- call/return value vectors ---

// callLoops is main's argument: calls per invocation of the call-heavy module.
const callLoops = 512

// callHeavy builds main(n): a loop of n calls to an (i32, i64) -> i64
// callee, so every call_pre/call_post/return hook carries a value vector
// (the i64 takes the split/join path too).
var callHeavy = sync.OnceValue(func() *wasm.Module {
	b := builder.New()
	callee := b.Func("callee", builder.V(wasm.I32, wasm.I64), builder.V(wasm.I64))
	callee.Get(1).I64(3).Op(wasm.OpI64Add)
	callee.Done()
	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I64))
	i := f.Local(wasm.I32)
	acc := f.Local(wasm.I64)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.Get(i).Get(acc).Call(callee.Index).Set(acc)
	})
	f.Get(acc)
	f.Done()
	return b.Build()
})

// callCounter implements exactly the three slice-carrying hooks with
// allocation-free bodies, so the allocations measured are the dispatcher's.
type callCounter struct{ calls int64 }

func (c *callCounter) CallPre(analysis.Location, int, []analysis.Value, int64) { c.calls++ }
func (c *callCounter) CallPost(analysis.Location, []analysis.Value)            { c.calls++ }
func (c *callCounter) Return(analysis.Location, []analysis.Value)              { c.calls++ }

func runCalls(b *testing.B, inst *interp.Instance) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Invoke("main", interp.I32(callLoops)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCallsPlain(b *testing.B) {
	inst, err := interp.Instantiate(callHeavy(), nil)
	if err != nil {
		b.Fatal(err)
	}
	runCalls(b, inst)
}

// benchCallsHooked is benchCallsPlain under call+return instrumentation;
// its allocs/op minus the baseline's, over hook-calls/op, is the per-hook
// allocation the engine-pooled borrowed buffers pin at 0.
func benchCallsHooked(b *testing.B) {
	ca, err := plainEngine().Instrument(callHeavy(), analysis.CapCallPre|analysis.CapCallPost|analysis.CapReturn)
	if err != nil {
		b.Fatal(err)
	}
	counter := &callCounter{}
	inst, err := newSession(b, ca, counter).Instantiate("", nil)
	if err != nil {
		b.Fatal(err)
	}
	runCalls(b, inst)
	b.ReportMetric(float64(counter.calls)/float64(b.N), "hook-calls/op")
}

// --- event stream, fan-out and sink ---

// countSink counts records. Its consumer goroutine writes it; the
// benchmark reads it only after joining that goroutine.
type countSink struct{ events uint64 }

func (s *countSink) Events(batch []wasabi.Event) { s.events += uint64(len(batch)) }

// server is the consuming end of a Stream or a fan-out Subscription.
type server interface{ Serve(wasabi.EventSink) }

// drain times the kernel on sess while one goroutine per server counts the
// records it is delivered, then ends the stream untimed and returns the
// total count.
func drain(b *testing.B, sess *wasabi.Session, end func(), servers ...server) uint64 {
	sinks := make([]countSink, len(servers))
	var wg sync.WaitGroup
	for i, s := range servers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Serve(&sinks[i])
		}()
	}
	runKernel(b, instantiate(b, sess))
	b.StopTimer()
	end()
	wg.Wait()
	var total uint64
	for i := range sinks {
		total += sinks[i].events
	}
	return total
}

func reportRate(b *testing.B, events uint64) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// benchStream delivers gemm's all-hooks records as batches of n to one
// counting consumer on its own goroutine.
func benchStream(n int) func(*testing.B) {
	return func(b *testing.B) {
		sess := newSession(b, gemmAllHooks(), wasabi.StreamCaps(wasabi.AllCaps))
		st, err := sess.Stream(wasabi.StreamBatchSize(n))
		if err != nil {
			b.Fatal(err)
		}
		events := drain(b, sess, st.Close, st)
		reportRate(b, events)
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}

// benchCallback is the stream's reference: the same instrumentation with
// the empty analysis dispatched synchronously, as events/s.
func benchCallback(b *testing.B) {
	perKernel := gemmRecording().events
	runKernel(b, instantiate(b, newSession(b, gemmAllHooks(), &analyses.Empty{})))
	reportRate(b, perKernel*uint64(b.N))
}

// benchFanout broadcasts gemm's records to subs Block subscribers, each on
// its own goroutine; events/s is the aggregate every subscriber received.
func benchFanout(subs, n int) func(*testing.B) {
	return func(b *testing.B) {
		sess := newSession(b, gemmAllHooks(), wasabi.StreamCaps(wasabi.AllCaps))
		fab, err := sess.Fanout(wasabi.StreamBatchSize(n))
		if err != nil {
			b.Fatal(err)
		}
		servers := make([]server, subs)
		for i := range servers {
			if servers[i], err = fab.Subscribe(); err != nil {
				b.Fatal(err)
			}
		}
		reportRate(b, drain(b, sess, fab.Close, servers...))
	}
}

// recording is one gemm invocation's record batches, copied out so the
// sink entries time the sink alone.
type recording struct {
	batches [][]wasabi.Event
	table   *wasabi.EventTable
	events  uint64
}

func (r *recording) Events(batch []wasabi.Event) {
	r.batches = append(r.batches, append([]wasabi.Event(nil), batch...))
	r.events += uint64(len(batch))
}

var gemmRecording = sync.OnceValue(func() *recording {
	sess := orPanic(gemmAllHooks().NewSession(wasabi.StreamCaps(wasabi.AllCaps)))
	defer sess.Close()
	st := orPanic(sess.Stream())
	rec := &recording{table: st.Table()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		st.Serve(rec)
	}()
	inst := orPanic(sess.Instantiate("", polybench.HostImports(nil)))
	orPanic(inst.Invoke("kernel"))
	st.Close()
	<-done
	return rec
})

// writeSegment writes rec to a fresh segment file at path.
func writeSegment(path string, rec *recording) error {
	w, err := sink.Create(path, rec.table)
	if err != nil {
		return err
	}
	for _, batch := range rec.batches {
		w.Events(batch)
	}
	return w.Close()
}

// eventBytes is the size of one record, the unit of the sink's MB/s.
const eventBytes = 40

// benchSinkWrite appends one kernel's records to a fresh segment and
// commits it, per op.
func benchSinkWrite(b *testing.B) {
	rec := gemmRecording()
	path := filepath.Join(b.TempDir(), "bench.evlog")
	b.SetBytes(int64(rec.events) * eventBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeSegment(path, rec); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportRate(b, rec.events*uint64(b.N))
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "segment-B")
}

// benchSinkReplay opens, decodes, serves and closes one kernel's segment,
// per op.
func benchSinkReplay(b *testing.B) {
	rec := gemmRecording()
	path := filepath.Join(b.TempDir(), "bench.evlog")
	if err := writeSegment(path, rec); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(rec.events) * eventBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sink.Open(path)
		if err != nil {
			b.Fatal(err)
		}
		var cs countSink
		r.Serve(&cs, 0)
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		if cs.events != rec.events {
			b.Fatalf("replayed %d of %d records", cs.events, rec.events)
		}
	}
	reportRate(b, rec.events*uint64(b.N))
}
