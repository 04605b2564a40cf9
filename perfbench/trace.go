package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is 0 for a root. Times are nanoseconds since the tracer started.
// A replayed span was measured by replaying the request in process and
// placed on the request's timeline afterwards.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Req      int64  `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// layer is the span name's prefix before the first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// layers are the layers self time is reported for; "driver" is the
// benchmark's own time between layer calls.
var layers = []string{"assign", "driver", "mechanism", "reputation", "server", "sim", "trust"}

// tracer keeps spans in memory and writes them out when the run ends. It
// is safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int64) int64 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: start})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// spanMS returns the duration of span id in ms.
func (t *tracer) spanMS(id int64) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ms(t.spans[id-1].dur())
}

// addChild records a replayed child of parent lasting d from the
// parent's start: a duration the program reported rather than one the
// tracer timed.
func (t *tracer) addChild(parent int64, name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: p.Req, Name: name,
		Start: p.Start, End: p.Start + int64(d), Replayed: true})
}

// graft moves the children of the replay root src under the live span
// dst, shifted so that they start where dst starts, and marks them
// replayed; src is left empty. It lets a request's layer split, measured
// by an in-process replay, sit inside the request it explains.
func (t *tracer) graft(src, dst int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	off := t.spans[dst-1].Start - t.spans[src-1].Start
	in := map[int64]bool{src: true}
	for i := src; i < int64(len(t.spans)); i++ {
		s := &t.spans[i]
		if !in[s.Parent] {
			continue
		}
		in[s.ID] = true
		s.Start += off
		s.End += off
		s.Replayed = true
		if s.Parent == src {
			s.Parent = dst
		}
	}
	t.spans[src-1].End = t.spans[src-1].Start
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover (children of one parent never overlap here).
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p > 0 {
			self[p-1] -= t.spans[i].dur()
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// layerSelf sums self time per layer over the spans of trees rooted at a
// span named root.
func (t *tracer) layerSelf(root string) map[string]time.Duration {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	in := make([]bool, len(t.spans))
	out := map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		// Parents precede children, so membership is known by now.
		in[i] = (s.Parent == 0 && s.Name == root) || (s.Parent > 0 && in[s.Parent-1])
		if in[i] {
			out[s.layer()] += self[i]
		}
	}
	return out
}

// unattributed returns the share of the named roots' time that no child
// span covers.
func (t *tracer) unattributed(root string) float64 {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	var own, total time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; s.Parent == 0 && s.Name == root {
			own += self[i]
			total += s.dur()
		}
	}
	if total <= 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// durations returns the durations in ms of every span with the name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, ms(t.spans[i].dur()))
		}
	}
	return out
}

// report sets the trace.* metrics for trees rooted at root.
func (t *tracer) report(rep *report, root string) {
	self := t.layerSelf(root)
	for _, l := range layers {
		rep.set("trace.self."+l+"_ms", ms(self[l]))
	}
	rep.set("trace.unattributed_frac", t.unattributed(root))
}

// write stores the spans as JSON under dir, named after the run.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	return path, os.WriteFile(path, data, 0o644)
}

// traceDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const traceDir = ".bench_build/trace"

// finishTrace writes the spans and notes where they went.
func finishTrace(t *tracer, rep *report, workload string, seed uint64) error {
	path, err := t.write(traceDir, workload, seed)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	rep.notef("spans written to %s", path)
	return nil
}
