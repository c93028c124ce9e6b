package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/core"
	"wasabi/internal/interp"
	"wasabi/internal/polybench"
	"wasabi/internal/sink"
	"wasabi/internal/static"
	"wasabi/internal/validate"
	"wasabi/internal/wasi"
	"wasabi/internal/wasm"
)

// Input sizes. They fix how much work one unit does; the seed only
// changes the data the work runs on.
const (
	goFullSize      = 8   // guest records under all hooks
	goSelectiveSize = 250 // guest records under block probes + branch hooks
	polybenchN      = 12  // PolyBench problem size of every kernel in the draw
)

// workload is one of the benchmark's input sets and the analysis
// configuration it runs under.
type workload struct {
	name string
	// guestSize > 0 selects the Go wasip1 guest with that many records;
	// otherwise the unit is the seeded PolyBench draw.
	guestSize int
	// static selects a WithStaticAnalysis engine, which runs
	// static.PlanFor; the traced run uses it to call the layers the way
	// the engine does.
	static bool
	stream bool
	// newAnalysis returns a fresh analysis value for one session.
	newAnalysis func() any
	// instrument is the public bytes-to-CompiledAnalysis bundle.
	instrument func(e *wasabi.Engine, b []byte, a any) (*wasabi.CompiledAnalysis, error)
	// check verifies the analysis saw the run.
	check func(a any) error
}

// newEngine creates the workload's engine. The per-module instrument
// cache is keyed by module pointer; every unit decodes afresh, so caching
// would only retain dead modules.
func (w *workload) newEngine() (*wasabi.Engine, error) {
	opts := []wasabi.EngineOption{wasabi.WithCompiledCacheLimit(0)}
	if w.static {
		opts = append(opts, wasabi.WithStaticAnalysis())
	}
	return wasabi.NewEngine(opts...)
}

func instrumentAll(e *wasabi.Engine, b []byte, _ any) (*wasabi.CompiledAnalysis, error) {
	return e.InstrumentBytes(b, wasabi.AllCaps)
}

var workloads = []*workload{
	{
		name:        "go-wasip1-full",
		guestSize:   goFullSize,
		newAnalysis: func() any { return analyses.NewInstructionMix() },
		instrument:  instrumentAll,
		check: func(a any) error {
			if a.(*analyses.InstructionMix).Total() == 0 {
				return errors.New("instruction mix counted nothing")
			}
			return nil
		},
	},
	{
		name:        "go-wasip1-selective",
		guestSize:   goSelectiveSize,
		static:      true,
		newAnalysis: func() any { return analyses.NewBranchCoverage() },
		instrument: func(e *wasabi.Engine, b []byte, a any) (*wasabi.CompiledAnalysis, error) {
			m, err := binary.Decode(b)
			if err != nil {
				return nil, err
			}
			return e.InstrumentFor(m, a)
		},
		check: func(a any) error {
			if _, total := a.(*analyses.BranchCoverage).FullyCovered(); total == 0 {
				return errors.New("branch coverage saw no branch")
			}
			return nil
		},
	},
	{
		name:        "polybench-stream",
		stream:      true,
		newAnalysis: func() any { return wasabi.StreamCaps(wasabi.AllCaps) },
		instrument:  instrumentAll,
		check:       func(any) error { return nil },
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// program is one module a unit runs: the Go guest, or one kernel of the
// PolyBench draw, with the expected result from an independent reference.
type program struct {
	name  string
	wasm  []byte
	entry string
	// Go guest: argv and the native build's stdout for the same argv.
	args   []string
	stdout []byte
	// PolyBench kernel: polybench.Kernel.Reference(polybenchN).
	checksum float64
}

func (p *program) isGuest() bool { return p.args != nil }

// inputs generates a workload's programs from the seed.
func inputs(w *workload, seed int64, guestWasm []byte, guestNative string) ([]program, error) {
	if w.guestSize > 0 {
		args := []string{"guest", strconv.FormatInt(seed, 10), strconv.Itoa(w.guestSize)}
		cmd := exec.Command(guestNative, args[1:]...)
		var out, errb bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &errb
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("native reference: %v: %s", err, errb.Bytes())
		}
		return []program{{name: "guest", wasm: guestWasm, entry: "_start", args: args, stdout: out.Bytes()}}, nil
	}
	// The draw is every kernel, in an order the seed shuffles, so that
	// every seed does the same amount of work.
	kernels := polybench.Kernels()
	order := rand.New(rand.NewSource(seed)).Perm(len(kernels))
	progs := make([]program, 0, len(kernels))
	for _, i := range order {
		k := kernels[i]
		b, err := binary.Encode(k.Module(polybenchN))
		if err != nil {
			return nil, fmt.Errorf("encode %s: %w", k.Name, err)
		}
		progs = append(progs, program{name: k.Name, wasm: b, entry: "kernel", checksum: k.Reference(polybenchN)})
	}
	return progs, nil
}

// bench is the set-up workload: its inputs and its engine.
type bench struct {
	w      *workload
	progs  []program
	eng    *wasabi.Engine
	segDir string
	tr     *tracer
	// hooks is the hook set the engine instrumented for, taken from the
	// CompiledAnalysis of an untraced unit (the warm-up unit comes first);
	// the traced run instruments the split layers for the same set.
	hooks analysis.HookSet
}

// unitResult holds one unit's measurements. Times are seconds summed over
// the unit's programs.
type unitResult struct {
	id                                            int
	analyze, instrument, instantiate, run, replay float64
	bytesIn, bytesOut                             int
	allocMB                                       float64
	err                                           error
	// counts and times of the traced run that are not spans
	layer map[string]float64
}

// unitCtx carries one unit's state through its programs.
type unitCtx struct {
	*unitResult
	tr   *tracer // nil when untraced
	root int
	wasi wasiStats
}

// window times one region of a unit. In a traced unit it also records the
// GC cycles and pause time that fall inside the region, so that the
// collections forced between regions are not counted.
type window struct {
	u      *unitCtx
	t0     time.Time
	cycles uint64
	pause  float64
}

func (u *unitCtx) open() window {
	w := window{u: u}
	if u.tr != nil {
		w.cycles, w.pause = gcCounters()
	}
	w.t0 = time.Now()
	return w
}

func (w window) close() float64 {
	d := time.Since(w.t0).Seconds()
	if w.u.tr != nil {
		c, p := gcCounters()
		w.u.layer["gc.cycles"] += float64(c - w.cycles)
		w.u.layer["gc.pause_s"] += p - w.pause
	}
	return d
}

// runUnit runs every program of the unit through the instrument path, the
// analyze path and (streams) the replay, verifying each result.
func (b *bench) runUnit(id int, traced bool) unitResult {
	u := &unitCtx{unitResult: &unitResult{id: id, layer: map[string]float64{}}}
	if traced {
		u.tr = b.tr
	}
	runtime.GC()
	a0 := heapAllocBytes()
	u.root = u.tr.begin(id, 0, "unit")
	for i := range b.progs {
		if err := b.runProgram(u, &b.progs[i]); err != nil {
			u.err = fmt.Errorf("%s: %w", b.progs[i].name, err)
			break
		}
	}
	u.tr.end(u.root)
	u.allocMB = float64(heapAllocBytes()-a0) / 1e6
	u.layer["wasi.calls"] = float64(u.wasi.calls)
	u.layer["wasi.busy_s"] = u.wasi.busy.Seconds()
	return *u.unitResult
}

// collectBetween runs the collector between the regions of a unit for the
// Go guest, whose regions each leave hundreds of MB of garbage behind; the
// kernels of the PolyBench draw are too small to need it.
func (b *bench) collectBetween() {
	if b.w.guestSize > 0 {
		runtime.GC()
	}
}

func (b *bench) runProgram(u *unitCtx, p *program) error {
	out, err := b.instrumentPath(u, p)
	if err != nil {
		return fmt.Errorf("instrument: %w", err)
	}
	u.bytesIn += len(p.wasm)
	u.bytesOut += len(out)
	b.collectBetween()

	seg := ""
	if b.w.stream {
		seg = filepath.Join(b.segDir, fmt.Sprintf("unit%d-%s.evlog", u.id, p.name))
		defer os.Remove(seg)
	}
	live, err := b.analyzePath(u, p, seg)
	if err != nil {
		return err
	}
	if b.w.stream {
		b.collectBetween()
		if err := b.replay(u, seg, live); err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if err := os.Remove(seg); err != nil {
			return fmt.Errorf("remove segment: %w", err)
		}
	}
	if u.tr != nil {
		b.collectBetween()
		if err := b.execPlain(u, p); err != nil {
			return fmt.Errorf("plain run: %w", err)
		}
	}
	return nil
}

// instrumentPath turns module bytes into instrumented bytes: the wasabi
// CLI's path and the paper's Table 5. Untraced it goes through the public
// bundle; traced it calls each layer's entry point the way the engine does.
func (b *bench) instrumentPath(u *unitCtx, p *program) ([]byte, error) {
	if u.tr == nil {
		w := u.open()
		ca, err := b.w.instrument(b.eng, p.wasm, b.w.newAnalysis())
		if err != nil {
			return nil, err
		}
		b.hooks = ca.HookSet()
		out, err := ca.Encode()
		u.instrument += w.close()
		return out, err
	}
	tr, unit := u.tr, u.id
	w := u.open()
	path := tr.begin(unit, u.root, "instrument")
	defer tr.end(path)
	sp := tr.begin(unit, path, "binary.decode")
	m, err := binary.Decode(p.wasm)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(unit, path, "validate.module")
	err = validate.Module(m)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	opts := core.Options{Hooks: b.hooks, SkipValidation: true}
	if b.w.static {
		sp = tr.begin(unit, path, "static.plan")
		opts.Plan, err = static.PlanFor(m, b.hooks)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	a0 := heapAllocBytes()
	sp = tr.begin(unit, path, "core.instrument")
	im, meta, err := core.Instrument(m, opts)
	tr.end(sp)
	u.layer["core.instrument_alloc_mb"] += float64(heapAllocBytes()-a0) / 1e6
	if err != nil {
		return nil, err
	}
	sp = tr.begin(unit, path, "binary.encode")
	out, err := binary.Encode(im)
	tr.end(sp)
	tr.end(path)
	u.instrument += w.close()
	u.layer["core.hook_sites"] += float64(hookSites(im, meta))
	return out, err
}

// hookSites counts the call instructions that target a generated hook
// import, which occupy [NumImportedFuncs, NumImportedFuncs+NumHooks) of
// the instrumented module's function index space.
func hookSites(m *wasm.Module, meta *core.Metadata) int {
	lo, hi := uint32(meta.NumImportedFuncs), uint32(meta.NumImportedFuncs+meta.NumHooks)
	n := 0
	for i := range m.Funcs {
		for _, in := range m.Funcs[i].Body {
			if in.Op == wasm.OpCall && in.Idx >= lo && in.Idx < hi {
				n++
			}
		}
	}
	return n
}

// liveResult is what the analyze path of a stream program observed, for the
// replay to be checked against.
type liveResult struct {
	mix       *analyses.StreamInstructionMix
	delivered [2]uint64 // records each subscriber received
	written   uint64    // records the sink writer committed
}

// analyzePath goes from module bytes to a verified analysis result through
// the public API — the wait a Wasabi user sees.
func (b *bench) analyzePath(u *unitCtx, p *program, seg string) (*liveResult, error) {
	tr, unit := u.tr, u.id
	a := b.w.newAnalysis()
	w := u.open()
	root := tr.begin(unit, u.root, "analyze")
	defer tr.end(root)

	sp := tr.begin(unit, root, "engine.instrument_bytes")
	ca, err := b.w.instrument(b.eng, p.wasm, a)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("instrument: %w", err)
	}

	sp = tr.begin(unit, root, "session")
	sess, err := ca.NewSession(a)
	if err != nil {
		tr.end(sp)
		return nil, fmt.Errorf("session: %w", err)
	}
	defer sess.Close()
	var fan *fanout
	if b.w.stream {
		fan, err = newFanout(sess, seg, u.tr != nil)
		if err != nil {
			tr.end(sp)
			return nil, err
		}
		defer fan.abort()
	}
	var (
		imports interp.Imports
		sys     *wasi.System
		printed []float64
	)
	if p.isGuest() {
		imports, sys = wasiImports(wasi.Config{Args: p.args}, &u.wasi)
	} else {
		imports = polybench.HostImports(&printed)
	}
	tr.end(sp)

	sp = tr.begin(unit, root, "interp.instantiate")
	a0 := heapAllocBytes()
	t := time.Now()
	inst, err := sess.Instantiate("", imports)
	u.instantiate += time.Since(t).Seconds()
	u.layer["interp.instantiate_alloc_mb"] += float64(heapAllocBytes()-a0) / 1e6
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("instantiate: %w", err)
	}

	run := tr.begin(unit, root, "run")
	t = time.Now()
	if fan != nil {
		fan.start(tr, unit, run)
	}
	res, runErr := inst.Invoke(p.entry)
	var live *liveResult
	if fan != nil {
		live, err = fan.finish(tr, unit, run)
		if runErr == nil {
			runErr = err
		}
	}
	u.run += time.Since(t).Seconds()
	tr.end(run)

	sp = tr.begin(unit, root, "check")
	err = b.verify(p, a, res, runErr, sys, printed)
	if err == nil && live != nil {
		err = fan.verify(live)
	}
	tr.end(sp)
	sess.Close()
	tr.end(root)
	u.analyze += w.close()
	if live != nil && u.tr != nil {
		u.layer["runtime.events"] += float64(live.delivered[0])
		u.layer["fabric.dropped"] += float64(fan.dropped())
		u.layer["sink.write_busy_s"] += fan.sinkBusy.Seconds()
		u.layer["fabric.sub_busy_s"] += (fan.mixBusy + fan.sinkBusy).Seconds()
		u.layer["fabric.sub_wait_s"] += (fan.mixWait + fan.sinkWait).Seconds()
		if fi, err := os.Stat(seg); err == nil {
			u.layer["sink.bytes"] += float64(fi.Size())
		}
	}
	return live, err
}

// verify checks one program's run against its independent reference.
func (b *bench) verify(p *program, a any, res []interp.Value, runErr error, sys *wasi.System, printed []float64) error {
	if p.isGuest() {
		var exit *wasi.ExitError
		if runErr != nil && !(errors.As(runErr, &exit) && exit.Code == 0) {
			return fmt.Errorf("run: %w", runErr)
		}
		if got := sys.Stdout(); !bytes.Equal(got, p.stdout) {
			return fmt.Errorf("stdout differs from the native build (%d bytes, want %d)", len(got), len(p.stdout))
		}
	} else {
		if runErr != nil {
			return fmt.Errorf("run: %w", runErr)
		}
		if len(res) != 1 || interp.AsF64(res[0]) != p.checksum {
			return fmt.Errorf("checksum %v, reference %v", res, p.checksum)
		}
		if len(printed) != 1 || printed[0] != p.checksum {
			return fmt.Errorf("printed %v, reference %v", printed, p.checksum)
		}
	}
	if a == nil {
		return nil
	}
	return b.w.check(a)
}

// replay serves the recorded segment into a fresh analysis and checks it
// against what the live subscribers saw.
func (b *bench) replay(u *unitCtx, seg string, live *liveResult) error {
	tr, unit := u.tr, u.id
	w := u.open()
	root := tr.begin(unit, u.root, "replay")
	sp := tr.begin(unit, root, "sink.open")
	r, err := sink.Open(seg)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return err
	}
	mix := analyses.NewStreamInstructionMix()
	mix.SetEventTable(r.Table())
	sp = tr.begin(unit, root, "sink.serve")
	r.Serve(mix, 0)
	tr.end(sp)
	count := r.Count()
	sp = tr.begin(unit, root, "sink.reader_close")
	err = r.Close()
	tr.end(sp)
	tr.end(root)
	u.replay += w.close()
	if err != nil {
		return err
	}
	if count != live.written || count != live.delivered[0] || count != live.delivered[1] {
		return fmt.Errorf("segment holds %d records; writer committed %d, subscribers received %v", count, live.written, live.delivered)
	}
	if len(mix.Counts) != len(live.mix.Counts) {
		return fmt.Errorf("replayed mix has %d kinds, live mix %d", len(mix.Counts), len(live.mix.Counts))
	}
	for k, v := range live.mix.Counts {
		if mix.Counts[k] != v {
			return fmt.Errorf("replayed %s count %d, live %d", k, mix.Counts[k], v)
		}
	}
	return nil
}

// execPlain runs the uninstrumented module on the same input: the base of
// run.overhead_ratio.
func (b *bench) execPlain(u *unitCtx, p *program) error {
	m, err := binary.Decode(p.wasm)
	if err != nil {
		return err
	}
	var (
		imports interp.Imports
		sys     *wasi.System
		printed []float64
		calls   wasiStats
	)
	if p.isGuest() {
		imports, sys = wasiImports(wasi.Config{Args: p.args}, &calls)
	} else {
		imports = polybench.HostImports(&printed)
	}
	inst, err := interp.Instantiate(m, imports)
	if err != nil {
		return err
	}
	sp := u.tr.begin(u.id, u.root, "interp.exec_plain")
	res, runErr := inst.Invoke(p.entry)
	u.tr.end(sp)
	return b.verify(p, nil, res, runErr, sys, printed)
}

// fanout is a stream program's consumer side: one fabric with two Block
// subscribers, a live instruction mix and a segment writer.
type fanout struct {
	fab      *wasabi.Fabric
	subs     [2]*wasabi.Subscription
	sinks    [2]*countingSink
	mix      *analyses.StreamInstructionMix
	writer   *sink.Writer
	wg       sync.WaitGroup
	started  bool
	finished bool

	mixBusy, mixWait, sinkBusy, sinkWait time.Duration
}

// countingSink counts the records a subscriber receives and, when timed,
// the time spent inside the wrapped sink's Events.
type countingSink struct {
	inner  analysis.EventSink
	timed  bool
	events uint64
	busy   time.Duration
}

func (c *countingSink) Events(batch []analysis.Event) {
	c.events += uint64(len(batch))
	if !c.timed {
		c.inner.Events(batch)
		return
	}
	t := time.Now()
	c.inner.Events(batch)
	c.busy += time.Since(t)
}

func newFanout(sess *wasabi.Session, seg string, timed bool) (*fanout, error) {
	fab, err := sess.Fanout()
	if err != nil {
		return nil, fmt.Errorf("fanout: %w", err)
	}
	f := &fanout{fab: fab, mix: analyses.NewStreamInstructionMix()}
	f.mix.SetEventTable(fab.Table())
	f.writer, err = sink.Create(seg, fab.Table())
	if err != nil {
		fab.Close()
		return nil, fmt.Errorf("segment: %w", err)
	}
	f.sinks = [2]*countingSink{{inner: f.mix, timed: timed}, {inner: f.writer, timed: timed}}
	for i := range f.subs {
		if f.subs[i], err = fab.Subscribe(); err != nil {
			fab.Close()
			f.writer.Close()
			return nil, fmt.Errorf("subscribe: %w", err)
		}
	}
	return f, nil
}

// start begins draining both subscriptions, each on its own goroutine.
func (f *fanout) start(tr *tracer, unit, parent int) {
	f.started = true
	for i := range f.subs {
		sub, cs := f.subs[i], f.sinks[i]
		name := [2]string{"fabric.sub.mix", "fabric.sub.sink"}[i]
		f.wg.Add(1)
		go func(i int) {
			defer f.wg.Done()
			t0 := time.Now()
			sub.Serve(cs)
			if tr == nil {
				return
			}
			t1 := time.Now()
			wait := t1.Sub(t0) - cs.busy
			if i == 0 {
				f.mixBusy, f.mixWait = cs.busy, wait
			} else {
				f.sinkBusy, f.sinkWait = cs.busy, wait
			}
			tr.add(span{Parent: parent, Unit: unit, Name: name, Async: true, Start: tr.since(t0), End: tr.since(t1),
				Busy: cs.busy.Seconds(), Wait: wait.Seconds(), Events: cs.events})
		}(i)
	}
}

// finish ends the stream, waits until both subscribers drained it and
// commits the segment.
func (f *fanout) finish(tr *tracer, unit, parent int) (*liveResult, error) {
	f.finished = true
	f.fab.Close()
	f.wg.Wait()
	sp := tr.begin(unit, parent, "sink.close")
	err := f.writer.Close()
	tr.end(sp)
	if err == nil {
		err = f.fab.Err()
	}
	return &liveResult{mix: f.mix, delivered: [2]uint64{f.sinks[0].events, f.sinks[1].events}, written: f.writer.Count()}, err
}

// abort tears the fan-out down after a failure before finish.
func (f *fanout) abort() {
	if f.finished {
		return
	}
	if !f.started {
		f.start(nil, 0, 0)
	}
	f.fab.Close()
	f.wg.Wait()
	f.writer.Close()
}

func (f *fanout) dropped() uint64 {
	return f.fab.Dropped() + f.subs[0].Dropped() + f.subs[1].Dropped()
}

func (f *fanout) verify(live *liveResult) error {
	if d := f.dropped(); d != 0 {
		return fmt.Errorf("%d events dropped", d)
	}
	if live.delivered[0] != live.delivered[1] || live.delivered[0] != live.written {
		return fmt.Errorf("subscribers received %v records, writer committed %d", live.delivered, live.written)
	}
	if live.mix.Total() == 0 {
		return errors.New("stream instruction mix counted nothing")
	}
	return nil
}
