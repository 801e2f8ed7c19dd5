package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Tracing from outside: the harness wraps every call it makes into a layer
// in a span and keeps the spans in one preallocated slice until the pass
// ends. A span without a parent is a root op (what op_p50_us times); its
// children are the layer calls made on its behalf, so a layer's self time
// is its span minus its children. Spans inside the program are ROADMAP
// item 2, not this harness.

type spanName uint8

const (
	spComplexOp   spanName = iota // root: one complex read, acquire + run
	spChainOp                     // root: one short-read chain, acquire + walk
	spAcquireView                 // tag: store.ViewEvent
	spRunComplex                  // tag: query number 1..14
	spShortChain                  // the walk itself
	spShortStep                   // tag: S1..S7 as 0..6
	spApplyUpdate                 // root: one update transaction
	spClientDo                    // root: one wire round trip, tag: Response.ServerMicros
	spRunPar                      // root: one BI query, tag: BI number 1..8
)

var spanNames = [...]string{
	spComplexOp:   "op.complex",
	spChainOp:     "op.short_chain",
	spAcquireView: "store.acquire_view",
	spRunComplex:  "workload.run_complex",
	spShortChain:  "workload.short_chain",
	spShortStep:   "workload.short_step",
	spApplyUpdate: "store.apply_update",
	spClientDo:    "client.do",
	spRunPar:      "bi.run_par",
}

type span struct {
	start, end int64 // ns since tracer.base
	tag        int64
	parent     int32 // index of the parent span, -1 for a root op
	name       spanName
}

// tracer is shared by every client goroutine of a pass; slots are claimed
// with one atomic add. A nil tracer records nothing, so untraced passes run
// the same code with one extra branch per call.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

// open starts a span whose end is not known yet and returns its index for
// children to name as their parent.
func (t *tracer) open(name spanName, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(start.Sub(t.base)), parent: parent, name: name}
	return int32(i)
}

func (t *tracer) close(id int32, tag int64, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(end.Sub(t.base))
	t.spans[id].tag = tag
}

func (t *tracer) add(name spanName, parent int32, tag int64, start, end time.Time) {
	t.close(t.open(name, parent, start), tag, end)
}

func (t *tracer) recorded() []span {
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// durations returns the ascending durations of the spans of one name that
// keep accepts (nil keeps all).
func (t *tracer) durations(name spanName, keep func(*span) bool) []int64 {
	var out []int64
	spans := t.recorded()
	for i := range spans {
		if s := &spans[i]; s.name == name && (keep == nil || keep(s)) {
			out = append(out, s.end-s.start)
		}
	}
	return sortInt64(out)
}

// write dumps the spans as JSON lines. "op" is the root span a span
// descends from, so the spans of one op share an identifier.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	spans := t.recorded()
	for i := range spans {
		s := &spans[i]
		op := int32(i)
		for spans[op].parent >= 0 {
			op = spans[op].parent
		}
		fmt.Fprintf(w, `{"id":%d,"op":%d,"parent":%d,"name":%q,"tag":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			i, op, s.parent, spanNames[s.name], s.tag, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints total and self time per span name to stderr.
func (t *tracer) summary() {
	spans := t.recorded()
	var total, child [len(spanNames)]int64
	var count [len(spanNames)]int
	for i := range spans {
		s := &spans[i]
		d := s.end - s.start
		total[s.name] += d
		count[s.name]++
		if s.parent >= 0 {
			child[spans[s.parent].name] += d
		}
	}
	fmt.Fprintf(os.Stderr, "%-22s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for n := range spanNames {
		if count[n] > 0 {
			fmt.Fprintf(os.Stderr, "%-22s %10d %12.1f %12.1f\n", spanNames[n], count[n], msOf(total[n]), msOf(total[n]-child[n]))
		}
	}
	if d := t.dropped.Load(); d > 0 {
		fmt.Fprintf(os.Stderr, "trace: %d spans dropped (buffer full)\n", d)
	}
}
