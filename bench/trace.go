package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps a traced run's spans in memory, one around each call the
// benchmark makes into a layer, and writes them out when the run ends.
// Tracing inside the layers themselves is left to the layers.
//
// Low-rate spans (a machine run, a Runner job, a probe) go through begin
// and end under one mutex. High-rate call sites (a barrier or client wait
// on every round) record into a per-goroutine spanBuf instead, so tracing
// adds no shared lock to the rendezvous it measures. A nil *tracer, and
// the nil *spanBuf it hands out, record nothing: the untraced run calls
// the same code.
type tracer struct {
	workload string
	origin   time.Time
	// budget is how many more high-rate spans may be kept.
	budget atomic.Int64

	mu    sync.Mutex
	spans []span
	bufs  []*spanBuf
}

// span is one recorded interval. Parent indexes the file's span list (-1
// for a root); times are nanoseconds since the tracer started.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// highRateSpans bounds a run's high-rate spans: barrier-spin makes a few
// million waits in a run, and the first 64k are plenty to cross-check
// the metrics and the profile while keeping the file to a few MB.
const highRateSpans = 1 << 16

// spanBuf is one goroutine's high-rate spans.
type spanBuf struct {
	t       *tracer
	spans   []span
	full    bool // the tracer's budget ran out
	dropped int
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, origin: time.Now()}
	t.budget.Store(highRateSpans)
	return t
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Workload: t.workload})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// buffer returns a new high-rate buffer for one goroutine.
func (t *tracer) buffer() *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{t: t, spans: make([]span, 0, 1024)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

// record adds one finished span under parent.
func (b *spanBuf) record(name string, parent int, start, end time.Time) {
	if b == nil {
		return
	}
	if b.full || b.t.budget.Add(-1) < 0 {
		b.full = true
		b.dropped++
		return
	}
	o := b.t.origin
	b.spans = append(b.spans, span{Name: name, Start: start.Sub(o).Nanoseconds(), End: end.Sub(o).Nanoseconds(),
		Parent: parent, Workload: b.t.workload})
}

// write stores every span as <dir>/<workload>.spans.json. Call it after
// every goroutine that holds a buffer has finished.
func (t *tracer) write(dir string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	all := append([]span(nil), t.spans...)
	dropped := 0
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		dropped += b.dropped
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped"`
		Spans    []span `json:"spans"`
	}{t.workload, dropped, all})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.workload+".spans.json"), data, 0o644)
}
