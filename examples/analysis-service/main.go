// Analysis-service: the paper's "instrument once, analyze many" workflow as
// a multi-tenant HTTP service over one shared engine — the event fabric's
// intended production shape. Tenants upload WebAssembly modules; each
// analysis request runs the module in a contained session (fuel-metered,
// memory-capped) whose event stream fans out to four concurrent
// subscribers: an instruction mix, a bounded trace, a function-coverage
// counter, and a durable record sink. The response reports all four — and
// the service replays the sink's segment file to prove the durable copy
// matches what the live subscribers saw.
//
// The program starts the service on a loopback port, then runs a
// self-checking client against it: a well-behaved tenant whose results are
// asserted in detail, and a runaway tenant (infinite loop) that the fuel
// budget must contain without taking the service down.
//
// Run with:
//
//	go run ./examples/analysis-service
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"wasabi"
	"wasabi/internal/analyses"
	"wasabi/internal/analysis"
	"wasabi/internal/binary"
	"wasabi/internal/builder"
	"wasabi/internal/interp"
	"wasabi/internal/sink"
	"wasabi/internal/wasm"
)

// fuelBudget bounds every tenant invocation: generous for real work at this
// scale, fatal for a runaway loop.
const fuelBudget = 1 << 16

// traceHead bounds the per-request trace excerpt.
const traceHead = 8

// maxUploadBytes bounds an uploaded module: room for a real toolchain
// binary (a Go wasip1 hello-world is ~2.4 MB), not for an unbounded read.
const maxUploadBytes = 8 << 20

// service is the shared state: one engine (so every tenant benefits from
// the same instrumentation cache and containment config) and the uploaded
// compiled modules.
type service struct {
	engine *wasabi.Engine
	dir    string // scratch directory for the per-request segment files

	mu      sync.Mutex
	modules map[string]*wasabi.CompiledAnalysis
	nextID  int
}

// uploadReply answers POST /modules.
type uploadReply struct {
	ID    string `json:"id"`
	Funcs int    `json:"funcs"`
}

// opCount is one instruction-mix row.
type opCount struct {
	Op string `json:"op"`
	N  uint64 `json:"n"`
}

// analyzeReply answers POST /modules/{id}/analyze: the per-tenant analysis
// results of one contained run.
type analyzeReply struct {
	Return       int64     `json:"return,omitempty"`
	Trap         string    `json:"trap,omitempty"`
	Instructions uint64    `json:"instructions"`
	TopOps       []opCount `json:"top_ops"`
	TraceHead    []string  `json:"trace_head"`
	FuncsSeen    int       `json:"funcs_seen"`
	Recorded     uint64    `json:"recorded"`
	Replayed     uint64    `json:"replayed"`
	FuelUsed     uint64    `json:"fuel_used"`
}

// funcCoverage counts the distinct functions that produced events — the
// cheapest useful per-tenant subscriber, here to stand for "your own
// analysis on a subscription".
type funcCoverage struct {
	seen map[int32]bool
}

func (c *funcCoverage) Events(batch []analysis.Event) {
	for i := range batch {
		if batch[i].Hook != analysis.EventCont {
			c.seen[batch[i].Func] = true
		}
	}
}

func (s *service) handleUpload(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxUploadBytes))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, err := binary.Decode(data)
	if err != nil {
		http.Error(w, "decode: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	compiled, err := s.engine.Instrument(m, wasabi.AllCaps)
	if err != nil {
		http.Error(w, "instrument: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("m%d", s.nextID)
	s.modules[id] = compiled
	s.mu.Unlock()
	json.NewEncoder(w).Encode(uploadReply{ID: id, Funcs: len(m.Funcs)})
}

func (s *service) handleAnalyze(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	s.mu.Lock()
	compiled := s.modules[id]
	s.mu.Unlock()
	if compiled == nil {
		http.Error(w, "unknown module "+id, http.StatusNotFound)
		return
	}
	entry := req.URL.Query().Get("entry")
	var args []interp.Value
	if v := req.URL.Query().Get("arg"); v != "" {
		n, err := strconv.ParseInt(v, 10, 32)
		if err != nil {
			http.Error(w, "arg: "+err.Error(), http.StatusBadRequest)
			return
		}
		args = append(args, interp.I32(int32(n)))
	}
	reply, err := s.analyze(compiled, id, entry, args)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	json.NewEncoder(w).Encode(reply)
}

// analyze runs one contained, fanned-out session: four subscribers drain
// concurrently while the tenant's code executes, then the recorded segment
// is replayed to check the durable copy.
func (s *service) analyze(compiled *wasabi.CompiledAnalysis, id, entry string, args []interp.Value) (*analyzeReply, error) {
	sess, err := compiled.NewSession(wasabi.StreamCaps(wasabi.AllCaps))
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	fab, err := sess.Fanout()
	if err != nil {
		return nil, err
	}

	mix := analyses.NewStreamInstructionMix()
	mix.SetEventTable(fab.Table())
	tracer := analyses.NewStreamTracer()
	tracer.MaxEvents = traceHead
	tracer.SetEventTable(fab.Table())
	cov := &funcCoverage{seen: map[int32]bool{}}
	segment := filepath.Join(s.dir, id+".evlog")
	rec, err := sink.Create(segment, fab.Table())
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	for _, consumer := range []wasabi.EventSink{mix, tracer, cov, rec} {
		sub, err := fab.Subscribe()
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(c wasabi.EventSink) {
			defer wg.Done()
			sub.Serve(c)
		}(consumer)
	}

	inst, err := sess.Instantiate("", nil)
	if err != nil {
		fab.Close()
		wg.Wait()
		return nil, err
	}
	res, invokeErr := inst.Invoke(entry, args...)
	fuelUsed := fuelBudget - inst.Fuel()
	fab.Close() // flush and end the stream
	wg.Wait()
	if err := rec.Close(); err != nil {
		return nil, err
	}

	reply := &analyzeReply{
		Instructions: mix.Total(),
		TraceHead:    tracer.Lines,
		FuncsSeen:    len(cov.seen),
		Recorded:     rec.Count(),
		FuelUsed:     fuelUsed,
	}
	if invokeErr != nil {
		// Containment working as intended is a result, not a server error.
		switch {
		case errors.Is(invokeErr, wasabi.ErrFuelExhausted):
			reply.Trap = "fuel exhausted"
		case errors.Is(invokeErr, wasabi.ErrLimit):
			reply.Trap = "resource limit"
		default:
			reply.Trap = invokeErr.Error()
		}
	} else if len(res) == 1 {
		reply.Return = int64(res[0])
	}
	for op, n := range mix.Counts {
		reply.TopOps = append(reply.TopOps, opCount{Op: op, N: n})
	}
	sort.Slice(reply.TopOps, func(i, j int) bool {
		if reply.TopOps[i].N != reply.TopOps[j].N {
			return reply.TopOps[i].N > reply.TopOps[j].N
		}
		return reply.TopOps[i].Op < reply.TopOps[j].Op
	})
	if len(reply.TopOps) > 3 {
		reply.TopOps = reply.TopOps[:3]
	}

	// Close the loop on durability: replay the segment and compare.
	r, err := sink.Open(segment)
	if err != nil {
		return nil, err
	}
	reply.Replayed = r.Count()
	r.Close()
	return reply, nil
}

// workModule is the well-behaved tenant: main(n) sums square(i) for
// i in [0,n), bouncing each partial sum through linear memory.
func workModule() []byte {
	b := builder.New()
	b.Memory(1)
	square := b.Func("square", builder.V(wasm.I32), builder.V(wasm.I64))
	square.Get(0).Op(wasm.OpI64ExtendI32U)
	square.Get(0).Op(wasm.OpI64ExtendI32U)
	square.Op(wasm.OpI64Mul)
	square.Done()

	f := b.Func("main", builder.V(wasm.I32), builder.V(wasm.I64))
	i := f.Local(wasm.I32)
	f.ForI32(i, func(fb *builder.FuncBuilder) { fb.Get(0) }, func(fb *builder.FuncBuilder) {
		fb.I32(16)
		fb.I32(16).Load(wasm.OpI64Load, 0)
		fb.Get(i).Call(square.Index).Op(wasm.OpI64Add)
		fb.Store(wasm.OpI64Store, 0)
	})
	f.I32(16).Load(wasm.OpI64Load, 0)
	f.Done()
	data, err := binary.Encode(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return data
}

// spinModule is the runaway tenant: main loops forever.
func spinModule() []byte {
	b := builder.New()
	f := b.Func("main", nil, nil)
	f.Loop().Op(wasm.OpNop).Br(0).End()
	f.Done()
	data, err := binary.Encode(b.Build())
	if err != nil {
		log.Fatal(err)
	}
	return data
}

func main() {
	dir, err := os.MkdirTemp("", "analysis-service")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	engine, err := wasabi.NewEngine(
		wasabi.WithFuel(fuelBudget),
		wasabi.WithMemoryLimitPages(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	svc := &service{engine: engine, dir: dir, modules: map[string]*wasabi.CompiledAnalysis{}}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /modules", svc.handleUpload)
	mux.HandleFunc("POST /modules/{id}/analyze", svc.handleAnalyze)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("analysis service listening on %s (shared engine, fuel %d, memory cap 4 pages)\n",
		ln.Addr(), fuelBudget)

	// --- self-checking client ---

	upload := func(module []byte) uploadReply {
		resp, err := http.Post(base+"/modules", "application/wasm", bytes.NewReader(module))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			log.Fatalf("upload: %s: %s", resp.Status, body)
		}
		var up uploadReply
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			log.Fatal(err)
		}
		return up
	}
	analyze := func(id, query string) analyzeReply {
		resp, err := http.Post(base+"/modules/"+id+"/analyze?"+query, "", nil)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			log.Fatalf("analyze %s: %s: %s", id, resp.Status, body)
		}
		var ar analyzeReply
		if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
			log.Fatal(err)
		}
		return ar
	}

	work := upload(workModule())
	spin := upload(spinModule())
	fmt.Printf("uploaded %s (%d funcs) and %s (%d funcs) to the shared engine\n",
		work.ID, work.Funcs, spin.ID, spin.Funcs)

	// Untrusted input is refused with a client error, never read unbounded
	// or run with a made-up argument.
	status := func(url string, body []byte) int {
		resp, err := http.Post(url, "application/wasm", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range []struct {
		what string
		got  int
		want int
	}{
		{"oversized upload", status(base+"/modules", make([]byte, maxUploadBytes+1)), http.StatusRequestEntityTooLarge},
		{"garbage upload", status(base+"/modules", []byte("not a wasm module")), http.StatusUnprocessableEntity},
		{"arg=x", status(base+"/modules/"+work.ID+"/analyze?entry=main&arg=x", nil), http.StatusBadRequest},
	} {
		if c.got != c.want {
			log.Fatalf("%s: status %d, want %d", c.what, c.got, c.want)
		}
	}
	fmt.Println("malformed input refused: oversized upload 413, garbage upload 422, arg=x 400")

	// Tenant 1: real work. sum(i^2, i<10) = 285, observed by all four
	// subscribers, with the durable copy replaying to the same record count.
	wr := analyze(work.ID, "entry=main&arg=10")
	if wr.Trap != "" {
		log.Fatalf("work tenant trapped: %s", wr.Trap)
	}
	if wr.Return != 285 {
		log.Fatalf("main(10) = %d, want 285", wr.Return)
	}
	if wr.Recorded == 0 || wr.Recorded != wr.Replayed {
		log.Fatalf("durable copy diverged: recorded %d, replayed %d", wr.Recorded, wr.Replayed)
	}
	if wr.FuncsSeen != 2 {
		log.Fatalf("funcs seen = %d, want 2 (main + square)", wr.FuncsSeen)
	}
	if len(wr.TraceHead) != traceHead {
		log.Fatalf("trace head has %d lines, want %d", len(wr.TraceHead), traceHead)
	}
	if wr.Instructions == 0 || wr.FuelUsed == 0 {
		log.Fatalf("empty observation: %d instructions, %d fuel", wr.Instructions, wr.FuelUsed)
	}
	fmt.Printf("tenant %s: main(10) = %d, %d instructions over %d funcs, top ops %v\n",
		work.ID, wr.Return, wr.Instructions, wr.FuncsSeen, wr.TopOps)
	fmt.Printf("tenant %s: %d records fanned out to 4 subscribers; durable replay matches (%d records)\n",
		work.ID, wr.Recorded, wr.Replayed)

	// Tenant 2: the runaway loop. The fuel budget must stop it, the fabric
	// must wind down cleanly, and the service must keep serving.
	sr := analyze(spin.ID, "entry=main")
	if sr.Trap != "fuel exhausted" {
		log.Fatalf("spin tenant: trap = %q, want fuel exhaustion", sr.Trap)
	}
	if sr.FuelUsed < fuelBudget {
		log.Fatalf("spin tenant used %d fuel of %d", sr.FuelUsed, fuelBudget)
	}
	if sr.Recorded == 0 || sr.Recorded != sr.Replayed {
		log.Fatalf("spin tenant recording diverged: %d vs %d", sr.Recorded, sr.Replayed)
	}
	fmt.Printf("runaway tenant contained: fuel exhausted after %d instructions; %d records still replayable\n",
		sr.Instructions, sr.Recorded)

	// The first tenant must be unaffected by its noisy neighbor.
	again := analyze(work.ID, "entry=main&arg=10")
	if again.Return != wr.Return || again.Recorded != wr.Recorded {
		log.Fatalf("service degraded after containment: %+v vs %+v", again, wr)
	}
	fmt.Println("analysis service: upload, contained fan-out analysis, and durable replay verified over HTTP")
}
