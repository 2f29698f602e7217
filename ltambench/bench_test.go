package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/stream"
)

func TestQuantileNearestRankAndCounts(t *testing.T) {
	var s Samples
	if s.Quantile(0.5) != 0 || s.N() != 0 {
		t.Fatalf("empty samples: q50=%v n=%d", s.Quantile(0.5), s.N())
	}
	for i := 100; i >= 1; i-- { // out of order on purpose
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if s.N() != 100 {
		t.Errorf("N = %d, want 100", s.N())
	}
	s.Add(1000) // adding after a sort must re-sort
	if got := s.Quantile(1); got != 1000 {
		t.Errorf("max after add = %v, want 1000", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

func TestSeriesWindows(t *testing.T) {
	base := time.Unix(100, 0)
	s := NewSeries(time.Second)
	s.StartRound(0, base, 2500*time.Millisecond) // two whole windows kept
	for i := 0; i < 30; i++ {
		at := base.Add(time.Duration(i) * 100 * time.Millisecond)
		v := 1.0
		if i >= 10 {
			v = 10 // the second window is slow
		}
		s.Add(at, v)
	}
	if got := s.Pooled().N(); got != 20 {
		t.Fatalf("kept %d samples, want 20 (the partial third window is dropped)", got)
	}
	s.StartRound(1, base.Add(time.Minute), 2*time.Second)
	for i := 0; i < 10; i++ {
		s.Add(base.Add(time.Minute+time.Duration(i)*100*time.Millisecond), 2)
	}
	// Windows: {1...}, {10...}, {2...}: the median window's p50 is 2.
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("windowed p50 = %v, want 2", got)
	}
	// Each window holds 10 samples 100ms apart: 9 intervals in 0.9s.
	if got := s.Rate(); got < 9.99 || got > 10.01 {
		t.Errorf("windowed rate = %v, want 10/s", got)
	}

	// A zero width makes each round one window.
	p := NewSeries(0)
	for r := 0; r < 3; r++ {
		p.StartRound(r, base.Add(time.Duration(r)*time.Minute), 0)
		for i := 1; i <= 10; i++ {
			p.Add(base.Add(time.Duration(r)*time.Minute+time.Duration(i)*time.Second), float64(10*r+i))
		}
	}
	// Round p95s are 10, 20, 30; their median is 20.
	if got := p.Quantile(0.95); got != 20 {
		t.Errorf("per-round p95 median = %v, want 20", got)
	}
}

func TestScheduleDueTimeAccounting(t *testing.T) {
	start := time.Unix(0, 0)
	s := Schedule{Start: start, Rate: 4000}
	if got := s.Due(0); !got.Equal(start) {
		t.Errorf("Due(0) = %v, want start", got)
	}
	if got := s.Due(4000).Sub(start); got != time.Second {
		t.Errorf("Due(4000) - start = %v, want 1s", got)
	}
	if got := s.Due(1).Sub(start); got != 250*time.Microsecond {
		t.Errorf("Due(1) - start = %v, want 250µs", got)
	}
	// Sent early or on time: no lateness. Sent 3ms after due: 3ms late,
	// and a latency measured from the due time includes those 3ms.
	if got := s.Late(8, s.Due(8).Add(-time.Millisecond)); got != 0 {
		t.Errorf("early send lateness = %v, want 0", got)
	}
	sent := s.Due(8).Add(3 * time.Millisecond)
	if got := s.Late(8, sent); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	ack := sent.Add(2 * time.Millisecond)
	if got := ack.Sub(s.Due(8)); got != 5*time.Millisecond {
		t.Errorf("latency from due = %v, want 5ms", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := Span{Name: "p", Start: 100, End: 200}
	cases := []struct {
		name     string
		children []Span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []Span{{Start: 110, End: 130}}, 80},
		{"overlapping children count once", []Span{{Start: 110, End: 150}, {Start: 140, End: 160}}, 50},
		{"nested child inside another", []Span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"children clipped to the parent", []Span{{Start: 50, End: 120}, {Start: 190, End: 260}}, 70},
		{"disjoint children", []Span{{Start: 100, End: 110}, {Start: 190, End: 200}}, 80},
		{"child outside the parent", []Span{{Start: 300, End: 400}}, 100},
	}
	for _, c := range cases {
		if got := SelfTime(parent, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAdoptByTime(t *testing.T) {
	spans := []Span{
		{Name: "chunk", Start: 0, End: 100, Parent: -1, Req: 1},
		{Name: "chunk", Start: 200, End: 300, Parent: -1, Req: 2},
		{Name: "io", Start: 50, End: 60, Parent: -1},
		{Name: "io", Start: 250, End: 320, Parent: -1},
		{Name: "io", Start: 150, End: 160, Parent: -1}, // between chunks
	}
	AdoptByTime(spans, "chunk", "io")
	if spans[2].Parent != 0 || spans[2].Req != 1 {
		t.Errorf("io@50 adopted by %d (req %d), want chunk 0 (req 1)", spans[2].Parent, spans[2].Req)
	}
	if spans[3].Parent != 1 || spans[3].Req != 2 {
		t.Errorf("io@250 adopted by %d (req %d), want chunk 1 (req 2)", spans[3].Parent, spans[3].Req)
	}
	if spans[4].Parent != -1 {
		t.Errorf("io@150 adopted by %d, want no parent", spans[4].Parent)
	}
	kids := ChildrenOf(spans)
	if got := SelfTime(spans[1], kids[1]); got != 50 {
		t.Errorf("chunk 2 self time = %d, want 50", got)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesValid(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not valid", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s %q: unit %q is not valid", kind, name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s %q: better = %q", kind, name, better)
		}
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name, "", "lower")
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
		if _, err := Generate(w.Name, 1, 1); err != nil {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	for _, m := range spec.EndToEnd {
		check("end_to_end", m.Name, m.Unit, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		check("per_layer", m.Name, m.Unit, m.Better)
	}
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}

	// The printed end-to-end set is exactly the declared one, unit for unit.
	l := NewLive(&Inputs{}, "ingest", 1, "", t.TempDir())
	got := EndToEnd(l)
	var want []string
	for _, m := range spec.EndToEnd {
		want = append(want, m.Name)
		if got[m.Name].Unit != m.Unit {
			t.Errorf("end_to_end %q: printed unit %q, declared %q", m.Name, got[m.Name].Unit, m.Unit)
		}
	}
	if g, w := sortedKeys(got), sortedStrings(want); strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("EndToEnd prints %v, BENCHMARK.json declares %v", g, w)
	}
}

// TestPerLayerNamesMatch runs the traced replay on a one-second ingest
// workload and checks it prints exactly the declared per-layer metrics.
func TestPerLayerNamesMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the in-process traced stack")
	}
	spec := loadSpec(t)
	in, err := Generate("ingest", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLive(in, "ingest", 1, "", t.TempDir())
	tr, err := Traced(in, l, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	got := PerLayer(l, tr)
	var want []string
	for _, m := range spec.PerLayer {
		want = append(want, m.Name)
		if g, ok := got[m.Name]; ok && g.Unit != m.Unit {
			t.Errorf("per_layer %q: printed unit %q, declared %q", m.Name, g.Unit, m.Unit)
		}
	}
	if g, w := sortedKeys(got), sortedStrings(want); strings.Join(g, ",") != strings.Join(w, ",") {
		t.Errorf("PerLayer prints %v\nBENCHMARK.json declares %v", g, w)
	}
}

func sortedKeys(m map[string]Metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedStrings(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

func TestCheckAckFailsOnWrongAnswer(t *testing.T) {
	if p := CheckAck(stream.Ack{Acked: 10}, 10); len(p) != 0 {
		t.Fatalf("good ack flagged: %v", p)
	}
	if p := CheckAck(stream.Ack{Acked: 9}, 10); len(p) != 1 {
		t.Errorf("short ack not flagged: %v", p)
	}
	if p := CheckAck(stream.Ack{Acked: 10, Errors: 1, LastError: "precedes engine clock"}, 10); len(p) != 1 {
		t.Errorf("per-reading error not flagged: %v", p)
	}
}

func TestReplayCheckFailsOnWrongAnswer(t *testing.T) {
	in, err := Generate("fanout", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	in.Frames = in.Frames[:len(in.Walkers)*20]
	u := len(in.Walkers)
	// One decision per walker after its step-10 reading, about a
	// neighbouring room: the crowd's roles give both outcomes.
	var ds []Decision
	for w := 0; w < u; w++ {
		f := in.Frames[10*u+w]
		ds = append(ds, Decision{Anchor: 10*u + w + 1, T: f.T, Subject: in.Walkers[f.W], Room: in.Site.Rooms[in.Site.Adj[f.Room][0]]})
	}
	want, granted, err := Replay(in, ds)
	if err != nil {
		t.Fatal(err)
	}
	if want.Moved != uint64(len(in.Frames)) || want.Granted+want.Denied == 0 {
		t.Fatalf("replay tally %+v for %d frames", want, len(in.Frames))
	}
	ok := stream.Ack{Granted: want.Granted, Denied: want.Denied, Moved: want.Moved}
	if p := CheckRounds([]stream.Ack{ok, ok, ok}, want); len(p) != 0 {
		t.Fatalf("identical tallies flagged: %v", p)
	}
	// Two rounds whose errors cancel: their sum and average equal the
	// replay's, but each round is wrong.
	over, under := ok, ok
	over.Granted++
	over.Denied--
	under.Granted--
	under.Denied++
	if p := CheckRounds([]stream.Ack{over, ok, under}, want); len(p) != 2 {
		t.Errorf("cancelling round errors flagged %d times, want 2: %v", len(p), p)
	}

	for i := range ds {
		ds[i].Granted = granted[i]
	}
	if p := CheckDecisions(ds, granted); len(p) != 0 {
		t.Fatalf("replayed decisions flagged: %v", p)
	}
	yes, no := slices.Index(granted, true), slices.Index(granted, false)
	if yes < 0 || no < 0 {
		t.Fatalf("replay outcomes %v lack a grant or a denial", granted)
	}
	// One wrongly denied and one wrongly granted decision: the granted
	// count is unchanged, the check still fails both.
	ds[yes].Granted, ds[no].Granted = false, true
	if p := CheckDecisions(ds, granted); len(p) != 2 {
		t.Errorf("cancelling decision errors flagged %d times, want 2: %v", len(p), p)
	}
}

func TestCheckAnswersFailsOnWrongAnswer(t *testing.T) {
	in, err := Generate("ingest", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	subjects := SampleSubjects(in)
	naive, err := NaiveAnswers(in, subjects)
	if err != nil {
		t.Fatal(err)
	}
	served := map[profile.SubjectID][]graph.ID{}
	for s, ids := range naive {
		served[s] = append([]graph.ID(nil), ids...)
	}
	if p := CheckAnswers(served, naive); len(p) != 0 {
		t.Fatalf("identical answers flagged: %v", p)
	}
	s := subjects[0]
	served[s] = append(served[s], "r09_09")
	if p := CheckAnswers(served, naive); len(p) != 1 {
		t.Errorf("wrong Algorithm-1 answer not flagged: %v", p)
	}
	delete(served, s)
	if p := CheckAnswers(served, naive); len(p) != 1 {
		t.Errorf("missing Algorithm-1 answer not flagged: %v", p)
	}
}

func TestCheckFeedAndRecoveryFailOnWrongAnswer(t *testing.T) {
	if p := CheckFeed(100, 100, 500, 500, 500, 0); len(p) != 0 {
		t.Fatalf("complete feed flagged: %v", p)
	}
	if p := CheckFeed(100, 130, 500, 500, 500, 0); len(p) != 1 {
		t.Errorf("feed missing its first records not flagged: %v", p)
	}
	if p := CheckFeed(100, 100, 500, 500, 500, 1); len(p) != 1 {
		t.Errorf("duplicate or gap not flagged: %v", p)
	}
	if p := CheckFeed(100, 100, 499, 500, 500, 0); len(p) != 1 {
		t.Errorf("short feed not flagged: %v", p)
	}
	if p := CheckFeed(100, 100, 500, 499, 500, 0); len(p) != 1 {
		t.Errorf("lagging follower not flagged: %v", p)
	}
	if msg := CheckRecovery(42, 42); msg != "" {
		t.Errorf("matching recovery flagged: %s", msg)
	}
	if msg := CheckRecovery(41, 42); msg == "" {
		t.Error("recovery with a lost record not flagged")
	}
}

func TestGenerateIsSeeded(t *testing.T) {
	a, err := Generate("ingest", 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("ingest", 9, 1)
	c, _ := Generate("ingest", 10, 1)
	if len(a.Frames) != len(b.Frames) || len(a.Grants) != len(b.Grants) {
		t.Fatal("same seed, different input sizes")
	}
	for i := range a.Frames {
		if a.Frames[i] != b.Frames[i] {
			t.Fatalf("same seed, frame %d differs", i)
		}
	}
	same := true
	for i := range a.Frames {
		if a.Frames[i] != c.Frames[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical frames")
	}
	// Every reading moves its walker (one record per reading), times
	// never decrease, and the role mix is exact.
	last := a.Frames[0].T
	at := map[int32]int32{}
	for i, f := range a.Frames {
		if f.T < last {
			t.Fatalf("frame %d goes back in time", i)
		}
		last = f.T
		if r, ok := at[f.W]; ok && r == f.Room {
			t.Fatalf("frame %d does not move walker %d", i, f.W)
		}
		at[f.W] = f.Room
	}
	limited := map[profile.SubjectID]bool{}
	for _, g := range a.Grants {
		if g.MaxEntries > 0 {
			limited[g.Subject] = true
		}
	}
	if want := 16; len(limited) != want { // 25% of 64 walkers
		t.Errorf("%d entry-limited walkers, want %d", len(limited), want)
	}
}
