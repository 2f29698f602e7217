package server

import (
	"bufio"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/wire"
)

// promSample matches one exposition sample line: metric name, optional
// label block, value.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (-?[0-9.e+-]+|[+-]Inf|NaN)$`)

// parseExposition validates a scrape against the text format: every
// line is a comment or a well-formed sample whose family was declared
// by a preceding TYPE line. Returns the sample names seen.
func parseExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			declared[fields[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count")
		if !declared[name] && !declared[family] {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
		seen[name] = true
	}
	return seen
}

// TestMetricsExposition: GET /metrics serves valid Prometheus text
// covering the core counter families, and reflects served traffic.
func TestMetricsExposition(t *testing.T) {
	c, _, centers := observeSite(t, 2, t.TempDir(), "Alice")

	if err := c.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveBatch([]wire.Reading{{Time: 2, Subject: "Alice", X: centers[0].X, Y: centers[0].Y}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(c.BaseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypeProm {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentTypeProm)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	seen := parseExposition(t, string(body))
	for _, want := range []string{
		"ltam_clock", "ltam_view_epoch", "ltam_view_publishes_total",
		"ltam_cache_requests_total", "ltam_authz_shards",
		"ltam_commit_batches_total", "ltam_wal_poisoned", "ltam_draining",
		"ltam_http_request_duration_seconds",
		"ltam_trace_max_seq", "ltam_pipeline_stage_duration_seconds",
		"ltam_replication_role", "ltam_ingest_frames_total",
		"ltam_stream_cursors",
		"ltam_movement_events", "ltam_movement_stints",
		"ltam_movement_open_stints", "ltam_movement_entry_keys",
	} {
		if !seen[want] {
			t.Errorf("scrape missing family %s", want)
		}
	}
	// The reading above entered a room: /v1/stats and the gauges report
	// the same movement history.
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if m := st.Movement; m.Events != 1 || m.Stints != 1 || m.OpenStints != 1 || m.EntryKeys != 1 {
		t.Errorf("/v1/stats movement = %+v, want one open stint", m)
	}
	for _, want := range []string{"ltam_movement_events 1\n", "ltam_movement_entry_keys 1\n"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape lacks %q", want)
		}
	}
	// The mutations above were traced: the stage summary must carry the
	// apply stage at least.
	if !strings.Contains(string(body), `ltam_pipeline_stage_duration_seconds{stage="apply"`) {
		t.Error("stage summary has no apply samples after traced mutations")
	}
}

// TestTraceEndpoint: traced mutations are readable back per sequence
// with monotone stage stamps, and /v1/stats grows a trace section.
func TestTraceEndpoint(t *testing.T) {
	c, _, centers := observeSite(t, 2, t.TempDir(), "Alice")

	if err := c.PutSubject(profile.Subject{ID: "Alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObserveBatch([]wire.Reading{{Time: 1, Subject: "Alice", X: centers[0].X, Y: centers[0].Y}}); err != nil {
		t.Fatal(err)
	}

	tr, err := c.TraceLast(16)
	if err != nil {
		t.Fatal(err)
	}
	if tr.MaxSeq == 0 || len(tr.Entries) == 0 {
		t.Fatalf("no traces after mutations: %+v", tr)
	}
	stageIdx := map[string]int{}
	for i, n := range obs.StageNames() {
		stageIdx[n] = i
	}
	for _, e := range tr.Entries {
		lastNanos, lastIdx := int64(0), -1
		for _, st := range e.Stamps {
			idx, ok := stageIdx[st.Stage]
			if !ok {
				t.Fatalf("unknown stage %q", st.Stage)
			}
			if idx <= lastIdx {
				t.Fatalf("seq %d: stage %s out of pipeline order", e.Seq, st.Stage)
			}
			if st.Nanos < lastNanos {
				t.Fatalf("seq %d: stage %s at %d precedes previous stamp %d", e.Seq, st.Stage, st.Nanos, lastNanos)
			}
			lastIdx, lastNanos = idx, st.Nanos
		}
	}

	// Point lookup agrees with the listing.
	one, err := c.Trace(tr.Entries[len(tr.Entries)-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Entries) != 1 || one.Entries[0].Seq != tr.Entries[len(tr.Entries)-1].Seq {
		t.Fatalf("point lookup = %+v", one)
	}

	// An evicted / never-staged sequence is a 404, not a fabrication.
	if _, err := c.Trace(tr.MaxSeq + 1000); err == nil {
		t.Error("future sequence must not resolve")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || st.Trace.MaxSeq != tr.MaxSeq || len(st.Trace.Stages) == 0 {
		t.Fatalf("stats trace section = %+v", st.Trace)
	}
	for _, sg := range st.Trace.Stages {
		if sg.Count == 0 {
			t.Errorf("stage %s reported with zero count", sg.Stage)
		}
	}
}

// TestTraceStampsRideCommitPipeline: with a durable system, a traced
// record must cross apply → append → fsync → publish in order (the
// group committer stamps the post-apply stages).
func TestTraceStampsRideCommitPipeline(t *testing.T) {
	_, c := testServer(t, t.TempDir())
	if err := c.PutSubject(profile.Subject{ID: "Bob"}); err != nil {
		t.Fatal(err)
	}
	tr, err := c.TraceLast(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries) != 1 {
		t.Fatalf("entries = %+v", tr.Entries)
	}
	got := map[string]int64{}
	for _, st := range tr.Entries[0].Stamps {
		got[st.Stage] = st.Nanos
	}
	for _, want := range []string{"apply", "append", "fsync", "publish"} {
		if got[want] == 0 {
			t.Fatalf("stage %s missing from a durable commit: %+v", want, tr.Entries[0].Stamps)
		}
	}
	if !(got["apply"] <= got["append"] && got["append"] <= got["fsync"] && got["fsync"] <= got["publish"]) {
		t.Fatalf("commit stages out of order: %+v", got)
	}
}
