package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"
)

// span is one timed call into a layer, recorded from outside the program.
// Spans of one replayed op share op; parent is the index of the enclosing
// span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Alloc0 and Alloc1 are the cumulative heap allocation (bytes) at
	// the span's start and end.
	Alloc0 uint64 `json:"-"`
	Alloc1 uint64 `json:"-"`
}

// recorder keeps spans in memory; the replay is serial, so begin/end nest
// strictly and a stack gives each span its parent.
type recorder struct {
	epoch time.Time
	op    int
	spans []span
	stack []int
	// alloc, when non-nil, is read at every span edge to attribute heap
	// allocation to layers.
	alloc []metrics.Sample
}

func newRecorder(trackAlloc bool) *recorder {
	r := &recorder{epoch: time.Now()}
	if trackAlloc {
		r.alloc = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	}
	return r
}

func (r *recorder) allocBytes() uint64 {
	if r.alloc == nil {
		return 0
	}
	metrics.Read(r.alloc)
	return r.alloc[0].Value.Uint64()
}

// begin opens a span under the innermost open one and returns its id.
func (r *recorder) begin(name string) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, Parent: parent,
		Alloc0: r.allocBytes(), Start: time.Since(r.epoch).Nanoseconds()})
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.End = time.Since(r.epoch).Nanoseconds()
	s.Alloc1 = r.allocBytes()
	if n := len(r.stack); n == 0 || r.stack[n-1] != id {
		panic(fmt.Sprintf("xtbench: span %q closed out of order", s.Name))
	}
	r.stack = r.stack[:len(r.stack)-1]
}

// layerTotals is one layer's self time and self allocation.
type layerTotals struct {
	SelfNs    int64
	SelfAlloc int64
}

// selfTotals sums, per span name, each span's duration minus its
// children's durations, and its allocation minus its children's
// allocation. The replay is serial, so children are disjoint and lie
// inside their parent.
func selfTotals(spans []span) map[string]layerTotals {
	out := make(map[string]layerTotals)
	for _, s := range spans {
		t := out[s.Name]
		t.SelfNs += s.End - s.Start
		t.SelfAlloc += int64(s.Alloc1 - s.Alloc0)
		out[s.Name] = t
	}
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent].Name
		t := out[p]
		t.SelfNs -= s.End - s.Start
		t.SelfAlloc -= int64(s.Alloc1 - s.Alloc0)
		out[p] = t
	}
	return out
}

// writeSpans writes the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
