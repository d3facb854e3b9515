package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one operation share
// Op; the "op" span of an operation is the parent of its layer spans.
type span struct {
	Name  string `json:"name"`
	Op    int    `json:"op"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the traced run; they are written out when
// the run ends. A nil *tracer records nothing, so the untraced run pays only
// a nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records one span. Callers take their timestamps only when t != nil.
func (t *tracer) add(name string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// time runs fn and records it as one span.
func (t *tracer) time(name string, op int, fn func()) {
	start := time.Now()
	fn()
	t.add(name, op, start, time.Now())
}

// meanMS is the mean duration of the spans named name, in milliseconds, and
// their number.
func (t *tracer) meanMS(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(sum) / 1e6 / float64(n), n
}

// totalS is the summed duration of the spans named name, in seconds.
func (t *tracer) totalS(name string) float64 {
	ms, n := t.meanMS(name)
	return ms * float64(n) / 1e3
}

// write stores the spans as JSON lines followed by one line holding the
// per-layer metrics.
func (t *tracer) write(path string, m metrics) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"metrics": m}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
