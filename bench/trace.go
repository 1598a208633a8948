package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run measures every layer from outside: bench/ times calls into
// each layer's public functions and records a span around each. Spans stay
// in memory and are written to bench/out/trace-<workload>.json when the run
// ends. End-to-end numbers always come from the untraced run.

// span is one timed call at a layer boundary. Spans of one request share
// its id; parent names the span that caused this one — on the ladder, the
// rung outside it.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"` // since the trace began
	EndNs   int64  `json:"end_ns"`
	Request uint64 `json:"request"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) span(name, parent string, start, end time.Time, id uint64) {
	s := span{Name: name, Parent: parent, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Request: id}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write stores the spans under <bench>/out/.
func (t *tracer) write(e *env, workload string) (string, error) {
	dir := filepath.Join(e.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
