package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder started. Parent is the index of the enclosing span
// (-1 for a root); spans of one request or chunk share Req.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Bytes  int    `json:"bytes,omitempty"`
	Count  int    `json:"count,omitempty"`
}

// Dur is the span's wall duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory; WriteFile dumps them when the run
// ends. It is safe for concurrent use.
type Recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder starts the span clock.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

// Now is the recorder clock.
func (r *Recorder) Now() int64 { return int64(time.Since(r.t0)) }

// Add stores a finished span and returns its index.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// Spans returns a copy of the recorded spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SelfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children are counted once, and children
// are clipped to the parent's interval.
func SelfTime(parent Span, children []Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a < parent.Start {
			a = parent.Start
		}
		if b > parent.End {
			b = parent.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	curA, curB := int64(0), int64(-1)
	for _, x := range ivs {
		if x.a > curB {
			if curB > curA {
				covered += curB - curA
			}
			curA, curB = x.a, x.b
			continue
		}
		if x.b > curB {
			curB = x.b
		}
	}
	if curB > curA {
		covered += curB - curA
	}
	return parent.Dur() - covered
}

// AdoptByTime assigns each span named child a parent among the spans
// named parent whose interval contains the child's start. It is how
// spans recorded on another goroutine (the group committer's WAL writes
// and fsyncs) attach to the ingest chunk that waited on them. Parents
// must not overlap one another (the ingest chunker is serial).
func AdoptByTime(spans []Span, parent, child string) {
	var ps []int
	for i, s := range spans {
		if s.Name == parent {
			ps = append(ps, i)
		}
	}
	sort.Slice(ps, func(a, b int) bool { return spans[ps[a]].Start < spans[ps[b]].Start })
	for i := range spans {
		if spans[i].Name != child || spans[i].Parent >= 0 {
			continue
		}
		st := spans[i].Start
		j := sort.Search(len(ps), func(k int) bool { return spans[ps[k]].Start > st }) - 1
		if j >= 0 && spans[ps[j]].End >= st {
			spans[i].Parent = ps[j]
			spans[i].Req = spans[ps[j]].Req
		}
	}
}

// ChildrenOf groups spans by parent index.
func ChildrenOf(spans []Span) map[int][]Span {
	out := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}
