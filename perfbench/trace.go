package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer by
// the benchmark. Spans of one unit share Unit; Parent links a span to the
// span that caused it (0 is the root). Async marks a span that ran on
// another goroutine (a fan-out subscriber): it overlaps its parent instead
// of blocking it, so it is not subtracted from the parent's self time.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Unit   int     `json:"unit"`
	Name   string  `json:"name"`
	Async  bool    `json:"async,omitempty"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // filled in by selfTimes
	Busy   float64 `json:"busy_s,omitempty"`
	Wait   float64 `json:"wait_s,omitempty"`
	Events uint64  `json:"events,omitempty"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// untraced units run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its id.
func (t *tracer) begin(unit, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Unit: unit, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span id; closing a closed span does nothing, so error
// paths can close spans with defer.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	if t.spans[id-1].End == 0 {
		t.spans[id-1].End = now
	}
	t.mu.Unlock()
}

// add records a span that was timed elsewhere (a subscriber goroutine's
// Serve loop) together with its busy/wait split and record count.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// since converts a wall-clock instant to the tracer's time base.
func (t *tracer) since(at time.Time) float64 { return at.Sub(t.t0).Seconds() }

// selfTimes fills every span's Self: its duration minus the part of its
// interval covered by its synchronous children.
func selfTimes(spans []span) {
	children := map[int][]int{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 && !spans[i].Async {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var ivs [][2]float64
		for _, c := range children[s.ID] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]float64{lo, hi})
			}
		}
		s.Self = (s.End - s.Start) - covered(ivs)
	}
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByUnit sums the self time of every span named name, per unit.
func selfByUnit(spans []span, name string) map[int]float64 {
	out := map[int]float64{}
	for i := range spans {
		if spans[i].Name == name {
			out[spans[i].Unit] += spans[i].Self
		}
	}
	return out
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path string, meta map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"run": meta, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
