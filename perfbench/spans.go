package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Start and End are offsets from the tracer's
// origin; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	Self     time.Duration `json:"self_ns"` // filled in when the run ends
	Workload string        `json:"workload"`
	Iter     int           `json:"iter"`
}

// Duration is the span's wall-clock length.
func (s span) Duration() time.Duration { return s.End - s.Start }

// tracer keeps a run's spans in memory until the run writes them out. It
// is not safe for concurrent use: spans are opened and closed by the
// goroutine driving the layer calls.
type tracer struct {
	origin   time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{origin: time.Now(), workload: workload}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, iter int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.origin), Workload: t.workload, Iter: iter,
	})
	return len(t.spans)
}

// end closes the span opened as id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = time.Since(t.origin)
	return s.Duration()
}

// do wraps fn in a span and returns the span's duration.
func (t *tracer) do(name string, parent, iter int, fn func(id int)) time.Duration {
	id := t.begin(name, parent, iter)
	fn(id)
	return t.end(id)
}

// durations returns the durations, in nanoseconds, of every span with the
// given name and parent name ("" matches any parent).
func (t *tracer) durations(name, parentName string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if parentName != "" && (s.Parent == 0 || t.spans[s.Parent-1].Name != parentName) {
			continue
		}
		out = append(out, float64(s.Duration()))
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (parallel layer calls), so the covered part is the length of the union
// of their intervals, clipped to the parent's.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]span, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.Duration() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, s := range kids {
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	for k, v := range ivs {
		if k > 0 && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		total += curHi - curLo
		curLo, curHi = v.lo, v.hi
	}
	return total + curHi - curLo
}
