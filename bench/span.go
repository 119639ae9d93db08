package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the harness, around the calls into each layer; a chunk id ties the spans
// of one 1024-record chunk together across layers.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the causing span, -1 for a root
	Chunk   int    `json:"chunk"`  // -1 when the span covers more than one chunk
}

const noSpan = -1

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced runs stay free of it.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string, parent, chunk int) int {
	if t == nil {
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, Chunk: chunk})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
}

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var d int64
	for i := range t.spans {
		if t.spans[i].Name == name {
			d += t.spans[i].EndNS - t.spans[i].StartNS
		}
	}
	return time.Duration(d)
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
