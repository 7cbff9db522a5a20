package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call at a layer boundary. Spans nest on one
// goroutine: Parent is the index of the enclosing span (-1 for a root)
// and Trial the trial the call served (-1 outside trials).
type span struct {
	Name   string  `json:"name"`
	Trial  int     `json:"trial"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written once, when the run
// ends, so the trace costs no I/O while trials run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) now() float64 { return time.Since(tr.t0).Seconds() }

func (tr *tracer) begin(name string, trial int) int {
	parent := -1
	if n := len(tr.stack); n > 0 {
		parent = tr.stack[n-1]
	}
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{Name: name, Trial: trial, Parent: parent, Start: tr.now()})
	tr.stack = append(tr.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (tr *tracer) end(id int) {
	if n := len(tr.stack); n == 0 || tr.stack[n-1] != id {
		panic("tracer: spans closed out of order")
	}
	tr.stack = tr.stack[:len(tr.stack)-1]
	tr.spans[id].End = tr.now()
}

// do runs f inside a span.
func (tr *tracer) do(name string, trial int, f func()) {
	id := tr.begin(name, trial)
	f()
	tr.end(id)
}

// total sums the durations of every span with the given name.
func (tr *tracer) total(name string) float64 {
	var sum float64
	for _, s := range tr.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// selfTimes fills each span's self time: its duration less the part its
// direct children cover.
func (tr *tracer) selfTimes() {
	for i := range tr.spans {
		tr.spans[i].Self = tr.spans[i].dur()
	}
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			tr.spans[s.Parent].Self -= s.dur()
		}
	}
}

// traceFile is the on-disk form: every span plus self time summed by
// span name.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	SelfByName map[string]float64 `json:"self_s_by_name"`
	Spans      []span             `json:"spans"`
}

func (tr *tracer) write(path, workload string, seed int64) error {
	tr.selfTimes()
	byName := map[string]float64{}
	for _, s := range tr.spans {
		byName[s.Name] += s.Self
	}
	data, err := json.MarshalIndent(traceFile{Workload: workload, Seed: seed, SelfByName: byName, Spans: tr.spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
