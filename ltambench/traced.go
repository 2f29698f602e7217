package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/enforce"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/movement"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/stream"
	"repro/internal/wire/frame"
)

// tracedReadCap bounds how many of the live run's reads the traced run
// replays through the server, per kind.
const tracedReadCap = 4000

// Span names.
const (
	spanWrite    = "storage.write"
	spanFsync    = "storage.fsync"
	spanObserve  = "core.observe"
	spanMutation = "core.mutation"
	spanApply    = "replica.apply"
)

// TraceResult is the layer ledger of one traced replay.
type TraceResult struct {
	M map[string]Metric
}

func (tr *TraceResult) set(name string, v float64, unit string) { tr.M[name] = Metric{v, unit} }

// tracedFile wraps the WAL's backing file: one span per Write and Sync.
type tracedFile struct {
	storage.File
	rec *Recorder
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := f.rec.Now()
	n, err := f.File.Write(p)
	f.rec.Add(Span{Name: spanWrite, Start: start, End: f.rec.Now(), Parent: -1, Bytes: n})
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.rec.Now()
	err := f.File.Sync()
	f.rec.Add(Span{Name: spanFsync, Start: start, End: f.rec.Now(), Parent: -1})
	return err
}

// tracedTarget is the ingestor's target: core.System with one span per
// ObserveBatch (one chunk).
type tracedTarget struct {
	sys *core.System
	rec *Recorder
	req atomic.Uint64
}

func (t *tracedTarget) ObserveBatch(readings []core.Reading) ([]core.ObserveOutcome, error) {
	req := t.req.Add(1)
	start := t.rec.Now()
	out, err := t.sys.ObserveBatch(readings)
	t.rec.Add(Span{Name: spanObserve, Start: start, End: t.rec.Now(), Parent: -1, Req: req, Count: len(readings)})
	return out, err
}

func (t *tracedTarget) ReplicationInfo() core.ReplicationInfo { return t.sys.ReplicationInfo() }

// ackLog records when each ingest ack arrived.
type ackLog struct {
	mu    sync.Mutex
	cond  *sync.Cond
	acked uint64
	// frameAt is filled per acked frame.
	frameAt []time.Time
}

func (a *ackLog) WriteAck(ack *stream.Ack) error {
	now := time.Now()
	a.mu.Lock()
	for i := a.acked; i < ack.Acked && int(i) < len(a.frameAt); i++ {
		a.frameAt[i] = now
	}
	if ack.Acked > a.acked {
		a.acked = ack.Acked
	}
	a.mu.Unlock()
	a.cond.Broadcast()
	return nil
}

func (a *ackLog) wait(n uint64) {
	a.mu.Lock()
	for a.acked < n {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

// Traced replays the workload's seeded inputs (one round) through an
// in-process stack built from the public packages, with spans around
// each layer's entry points, and replays the layers only core calls
// directly through their own public functions.
func Traced(in *Inputs, l *Live, dir string) (*TraceResult, error) {
	tr := &TraceResult{M: map[string]Metric{}}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := tracedCodec(in, tr); err != nil {
		return nil, err
	}
	if err := tracedLayers(in, l, tr); err != nil {
		return nil, err
	}
	rec := NewRecorder()
	if err := tracedStack(in, l, tr, rec, filepath.Join(dir, "data")); err != nil {
		return nil, err
	}
	return tr, rec.WriteFile(filepath.Join(dir, "spans.jsonl"))
}

// tracedCodec times the binary observe codec over the round's frames.
func tracedCodec(in *Inputs, tr *TraceResult) error {
	n := len(in.Frames)
	buf := make([]byte, 0, n*48)
	start := time.Now()
	for i := 0; i < n; i++ {
		var err error
		if buf, err = frame.AppendObserve(buf, in.obsFrame(i)); err != nil {
			return err
		}
	}
	enc := time.Since(start)
	r := frame.NewObserveReader(bytes.NewReader(buf))
	defer r.Release()
	var f stream.ObserveFrame
	start = time.Now()
	for i := 0; i < n; i++ {
		if err := r.ReadFrame(&f); err != nil {
			return fmt.Errorf("decode frame %d: %w", i, err)
		}
	}
	dec := time.Since(start)
	tr.set("frame.observe_encode_ns", float64(enc.Nanoseconds())/float64(n), "ns")
	tr.set("frame.observe_decode_ns", float64(dec.Nanoseconds())/float64(n), "ns")
	tr.set("frame.bytes_per_reading", float64(len(buf))/float64(n), "B")
	return nil
}

// tracedLayers replays the readings, ticks and decisions directly
// through geometry.Resolver, enforce.Engine (over its own movement.DB and
// authz.Store), movement.DB.EntryCount and query.FindInaccessible.
func tracedLayers(in *Inputs, l *Live, tr *TraceResult) error {
	res, err := geometry.NewResolver(in.Site.Bounds)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, f := range in.Frames {
		_ = res.Resolve(in.Point(f))
	}
	tr.set("geometry.resolve_ns", float64(time.Since(start).Nanoseconds())/float64(len(in.Frames)), "ns")

	store := authz.NewStore()
	if _, err := store.AddAll(in.Grants); err != nil {
		return err
	}
	moves := movement.NewDB()
	eng, err := enforce.New(in.Site.Graph, store, moves, audit.NewLog(0))
	if err != nil {
		return err
	}
	var enter, request, count Samples
	ds := firstRound(l.Decisions)
	next := 0
	u := len(in.Walkers)
	decideUpTo := func(applied int) {
		for ; next < len(ds) && ds[next].Anchor <= applied; next++ {
			d := ds[next]
			t0 := time.Now()
			eng.Request(d.T, d.Subject, d.Room)
			request.AddDur(time.Since(t0), time.Microsecond)
		}
	}
	for i, f := range in.Frames {
		decideUpTo(i)
		s, loc := in.Walkers[f.W], in.Site.Rooms[f.Room]
		if cur, inside := moves.CurrentLocation(s); inside && cur == loc {
			continue
		}
		for _, a := range store.For(s, loc) {
			if a.MaxEntries != authz.Unlimited && a.PermitsEntryAt(f.T) {
				t0 := time.Now()
				moves.EntryCount(s, loc, a.Entry)
				count.AddDur(time.Since(t0), time.Microsecond)
			}
		}
		t0 := time.Now()
		if _, err := eng.Enter(f.T, s, loc); err != nil {
			return fmt.Errorf("enforce replay: %w", err)
		}
		enter.AddDur(time.Since(t0), time.Microsecond)
		if (i+1)%u == 0 && in.TickAfter[i/u] {
			decideUpTo(i + 1)
			if _, err := eng.Tick(f.T + 1); err != nil {
				return fmt.Errorf("enforce replay tick: %w", err)
			}
		}
	}
	decideUpTo(len(in.Frames))
	tr.set("enforce.enter_us_p50", enter.Quantile(0.50), "us")
	tr.set("enforce.enter_us_p99", enter.Quantile(0.99), "us")
	tr.set("enforce.request_us_p50", request.Quantile(0.50), "us")
	tr.set("enforce.request_us_p99", request.Quantile(0.99), "us")
	tr.set("movement.entry_count_us_p50", count.Quantile(0.50), "us")
	tr.set("movement.entry_count_us_p99", count.Quantile(0.99), "us")
	stints := 0
	for _, s := range in.Walkers {
		stints += len(moves.History(s))
	}
	tr.set("movement.stints_per_subject", ratio(float64(stints), float64(u)), "count")
	tr.set("movement.events_retained", float64(moves.Len()), "count")

	flat := graph.Expand(in.Site.Graph)
	var fix Samples
	for _, s := range readSubjects(in, l.Inacc.Pooled().N()) {
		t0 := time.Now()
		query.FindInaccessible(flat, store, s, query.Options{})
		fix.AddDur(time.Since(t0), time.Microsecond)
	}
	tr.set("query.fixpoint_us_p50", fix.Quantile(0.50), "us")
	tr.set("query.fixpoint_us_p99", fix.Quantile(0.99), "us")
	return nil
}

// firstRound keeps the decisions of the live run's first round (issued
// in anchor order), capped at tracedReadCap.
func firstRound(all []Decision) []Decision {
	var out []Decision
	for _, d := range all {
		if d.Round == 0 && len(out) < tracedReadCap {
			out = append(out, d)
		}
	}
	return out
}

// readSubjects draws the Algorithm-1 query subjects the traced run
// replays: as many as the live run issued, capped.
func readSubjects(in *Inputs, n int) []profile.SubjectID {
	if n > tracedReadCap {
		n = tracedReadCap
	}
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(in.Seed ^ 0x71))
	out := make([]profile.SubjectID, n)
	for i := range out {
		out[i] = in.Roster[rng.Intn(len(in.Roster))]
	}
	return out
}

// tracedStack runs the round through core.System (durable, WAL wrapped),
// the stream ingestor, the event bus, a same-process replica and the
// HTTP server handler.
func tracedStack(in *Inputs, l *Live, tr *TraceResult, rec *Recorder, dataDir string) error {
	_ = os.RemoveAll(dataDir)
	sys, err := core.Open(core.Config{Graph: in.Site.Graph, Boundaries: in.Site.Bounds, DataDir: dataDir, AutoDerive: true,
		WALWrap: func(f storage.File) storage.File { return &tracedFile{File: f, rec: rec} }})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()
	var mut Samples
	timed := func(f func() error) error {
		start := rec.Now()
		err := f()
		end := rec.Now()
		rec.Add(Span{Name: spanMutation, Start: start, End: end, Parent: -1})
		mut.Add(float64(end-start) / 1e3)
		return err
	}
	for _, s := range in.Subjects {
		if err := timed(func() error { return sys.PutSubject(profile.Subject{ID: s}) }); err != nil {
			return err
		}
	}
	for _, g := range in.Grants {
		if err := timed(func() error { _, err := sys.AddAuthorization(g); return err }); err != nil {
			return err
		}
	}
	base := sys.ReplicationInfo().TotalSeq

	// Event bus with one subscription from the current head.
	bus, err := stream.NewBus(sys, stream.BusConfig{})
	if err != nil {
		return err
	}
	busDone := make(chan struct{})
	busStop := make(chan struct{})
	var busMu sync.Mutex
	gotAt := map[uint64]time.Time{}
	var events []stream.Event
	busEvictions := 0
	go func() {
		// One subscriber; after an eviction it resubscribes from its next
		// seq, like the live fanout subscriber.
		defer close(busDone)
		next := base
		for {
			sub, err := bus.Subscribe(stream.SubscribeOptions{From: next, Filter: stream.Filter{Kinds: recordKinds}, Buffer: 1 << 15})
			if err != nil {
				return
			}
			for {
				ev, err := sub.Next(busStop)
				if err != nil {
					sub.Close()
					return
				}
				if ev.Kind == stream.KindError {
					sub.Close()
					busMu.Lock()
					busEvictions++
					busMu.Unlock()
					break
				}
				next = ev.Seq + 1
				busMu.Lock()
				gotAt[ev.Seq] = time.Now()
				if len(events) < tracedReadCap {
					events = append(events, ev)
				}
				busMu.Unlock()
			}
		}
	}()

	// Same-process replica, fed by LocalSource.Tail with timed applies.
	src := &core.LocalSource{Primary: sys}
	rep, err := core.NewReplica(src)
	if err != nil {
		close(busStop)
		<-busDone
		bus.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var apply Samples
	var lagMax uint64
	repDone := make(chan error, 1)
	go func() {
		for ctx.Err() == nil {
			err := src.Tail(ctx, rep.AppliedSeq(), func(r storage.Record) error {
				start := rec.Now()
				err := rep.ApplyRecord(r)
				end := rec.Now()
				rec.Add(Span{Name: spanApply, Start: start, End: end, Parent: -1})
				apply.Add(float64(end-start) / 1e3)
				if total := sys.ReplicationInfo().TotalSeq; total > rep.AppliedSeq() && total-rep.AppliedSeq() > lagMax {
					lagMax = total - rep.AppliedSeq()
				}
				return err
			})
			if err != nil && !errors.Is(err, context.Canceled) {
				repDone <- err
				return
			}
		}
		repDone <- nil
	}()
	// stop ends the bus subscriber and the replica (once), waiting for
	// both goroutines.
	var stopOnce sync.Once
	var repErr error
	stop := func() error {
		stopOnce.Do(func() {
			close(busStop)
			<-busDone
			bus.Close()
			cancel()
			repErr = <-repDone
			rep.Close()
		})
		return repErr
	}
	defer stop()

	// Ingest: one connection into a stream.Ingestor over a pipe.
	n := len(in.Frames)
	acks := &ackLog{frameAt: make([]time.Time, n)}
	acks.cond = sync.NewCond(&acks.mu)
	target := &tracedTarget{sys: sys, rec: rec}
	ing := &stream.Ingestor{Target: target}
	pr, pw := io.Pipe()
	fr := frame.NewObserveReader(pr)
	ingDone := make(chan error, 1)
	go func() { ingDone <- ing.RunFramed(fr, acks) }()
	bw := bufio.NewWriterSize(pw, 64<<10)
	sentAt := make([]time.Time, n)
	var enc []byte
	u := len(in.Walkers)
	ingStart := time.Now()
	wStart := rec.Now()
	for k := 0; k < in.Steps(); k++ {
		for w := 0; w < u; w++ {
			i := k*u + w
			if enc, err = frame.AppendObserve(enc[:0], in.obsFrame(i)); err != nil {
				break
			}
			sentAt[i] = time.Now()
			if _, err = bw.Write(enc); err != nil {
				break
			}
		}
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			break
		}
		if in.TickAfter[k] {
			acks.wait(uint64((k + 1) * u))
			t := in.Frames[k*u].T + 1
			if err = timed(func() error { _, err := sys.Tick(t); return err }); err != nil {
				break
			}
		}
	}
	if err == nil {
		if enc, err = frame.AppendObserve(enc[:0], &stream.ObserveFrame{End: true}); err == nil {
			if _, err = bw.Write(enc); err == nil {
				err = bw.Flush()
			}
		}
	}
	pw.CloseWithError(err)
	ingErr := <-ingDone
	fr.Release()
	ingWall := time.Since(ingStart)
	wEnd := rec.Now()
	if err != nil || ingErr != nil {
		return errors.Join(err, ingErr)
	}
	var ackLat Samples
	for i := range sentAt {
		if !acks.frameAt[i].IsZero() {
			ackLat.AddDur(acks.frameAt[i].Sub(sentAt[i]), time.Millisecond)
		}
	}
	ingestTotal := sys.ReplicationInfo().TotalSeq

	// Reads through the HTTP handler, with the System calls timed
	// separately; churn interleaved at the live run's ratio.
	srv := server.New(sys)
	reads := readSubjects(in, l.Inacc.Pooled().N())
	ds := firstRound(l.Decisions)
	churnEvery := 0
	if pairs := l.Churn.N() / 2; pairs > 0 {
		churnEvery = (l.Decide.Pooled().N() + l.Inacc.Pooled().N()) / pairs
	}
	now := sys.Clock()
	rng := rand.New(rand.NewSource(in.Seed ^ 0x3c))
	var coreReq, coreInacc, srvReq, srvInacc Samples
	var hits, misses uint64
	serve := func(method, target, body string) (time.Duration, error) {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		w := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(w, req)
		d := time.Since(t0)
		if w.Code != http.StatusOK {
			return d, fmt.Errorf("%s %s: HTTP %d", method, target, w.Code)
		}
		return d, nil
	}
	ops := 0
	for i := 0; i < len(reads) || i < len(ds); i++ {
		if i < len(ds) {
			d := ds[i]
			t0 := time.Now()
			sys.Request(now, d.Subject, d.Room)
			c := time.Since(t0)
			coreReq.AddDur(c, time.Microsecond)
			s, err := serve("POST", "/v1/request", fmt.Sprintf(`{"time":%d,"subject":%q,"location":%q}`, now, d.Subject, d.Room))
			if err != nil {
				return err
			}
			srvReq.AddDur(s-c, time.Microsecond)
			ops++
		}
		if i < len(reads) {
			s := reads[i]
			before := sys.QueryCacheStats()
			t0 := time.Now()
			sys.Inaccessible(s)
			coreInacc.AddDur(time.Since(t0), time.Microsecond)
			after := sys.QueryCacheStats()
			hits += after.Hits - before.Hits
			misses += after.Misses - before.Misses
			sd, err := serve("GET", "/v1/queries/inaccessible?subject="+url.QueryEscape(string(s)), "")
			if err != nil {
				return err
			}
			t0 = time.Now()
			sys.Inaccessible(s)
			sys.Accessible(s)
			srvInacc.AddDur(sd-time.Since(t0), time.Microsecond)
			ops++
		}
		if churnEvery > 0 && ops >= churnEvery && len(in.Churn) > 0 {
			ops = 0
			c := in.Churn[rng.Intn(len(in.Churn))]
			room := in.Site.Rooms[rng.Intn(len(in.Site.Rooms))]
			var id authz.ID
			if err := timed(func() error {
				a, err := sys.AddAuthorization(authz.New(churnWindow(), churnWindow(), c, room, authz.Unlimited))
				id = a.ID
				return err
			}); err != nil {
				return err
			}
			if err := timed(func() error { _, err := sys.RevokeAuthorization(id); return err }); err != nil {
				return err
			}
		}
	}

	// Let the replica and the bus catch up, then stop them.
	final := sys.ReplicationInfo().TotalSeq
	deadline := time.Now().Add(30 * time.Second)
	for rep.AppliedSeq() < final && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for time.Now().Before(deadline) {
		busMu.Lock()
		_, done := gotAt[final-1]
		busMu.Unlock()
		if done || final == base {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := stop(); err != nil {
		return fmt.Errorf("traced replica: %w", err)
	}

	// Bus delivery lag: a reading's send into the ingest pipe to its
	// event at the subscriber. Every generated reading moves its walker,
	// so readings and ticks map one-to-one onto records from base.
	var lag Samples
	busMu.Lock()
	seq := base
	for k := 0; k < in.Steps(); k++ {
		for w := 0; w < u; w++ {
			if got, ok := gotAt[seq]; ok {
				lag.AddDur(got.Sub(sentAt[k*u+w]), time.Millisecond)
			}
			seq++
		}
		if in.TickAfter[k] {
			seq++
		}
	}
	evs := events
	busMu.Unlock()
	var evBuf []byte
	for i := range evs {
		if evBuf, err = frame.AppendEvent(evBuf, &evs[i]); err != nil {
			return err
		}
	}
	rr := frame.NewRawReader(bytes.NewReader(evBuf))
	var bodies [][]byte
	for {
		b, err := rr.Next()
		if err != nil {
			break
		}
		bodies = append(bodies, append([]byte(nil), b...))
	}
	rr.Release()
	var ev stream.Event
	t0 := time.Now()
	for _, b := range bodies {
		if err := frame.DecodeEvent(b, &ev); err != nil {
			return err
		}
	}
	tr.set("frame.event_decode_ns", ratio(float64(time.Since(t0).Nanoseconds()), float64(len(bodies))), "ns")

	// Snapshot size, then close.
	if err := sys.Snapshot(); err != nil {
		return err
	}
	closed = true
	if err := sys.Close(); err != nil {
		return err
	}
	snapBytes, err := dirBytes(filepath.Join(dataDir, "snapshots"))
	if err != nil {
		return err
	}

	ledger(tr, rec.Spans(), wStart, wEnd, n, ingestTotal-base, ingWall)
	tr.set("core.mutation_us_p50", mut.Quantile(0.50), "us")
	tr.set("core.request_us_p50", coreReq.Quantile(0.50), "us")
	tr.set("core.request_us_p99", coreReq.Quantile(0.99), "us")
	tr.set("core.inaccessible_us_p50", coreInacc.Quantile(0.50), "us")
	tr.set("core.inaccessible_us_p99", coreInacc.Quantile(0.99), "us")
	tr.set("query.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	tr.set("server.request_self_us", srvReq.Quantile(0.50), "us")
	tr.set("server.inaccessible_self_us", srvInacc.Quantile(0.50), "us")
	tr.set("replica.apply_us_p50", apply.Quantile(0.50), "us")
	tr.set("replica.apply_us_p99", apply.Quantile(0.99), "us")
	tr.set("replica.lag_records_max", float64(lagMax), "count")
	tr.set("bus.deliver_lag_ms_p50", lag.Quantile(0.50), "ms")
	tr.set("bus.deliver_lag_ms_p99", lag.Quantile(0.99), "ms")
	tr.set("storage.snapshot_bytes", float64(snapBytes), "B")
	tr.set("bus.traced_evictions", float64(busEvictions), "count")
	tr.set("traced.ops_per_s", ratio(float64(n), ingWall.Seconds()), "1/s")
	tr.set("traced.write_p50_ms", ackLat.Quantile(0.50), "ms")
	return nil
}

// ledger derives the ingest, core write-path and storage metrics from
// the spans recorded between wStart and wEnd (the ingest phase).
func ledger(tr *TraceResult, spans []Span, wStart, wEnd int64, frames int, records uint64, wall time.Duration) {
	var phase []Span
	for _, s := range spans {
		if s.Start >= wStart && s.End <= wEnd {
			phase = append(phase, s)
		}
	}
	AdoptByTime(phase, spanObserve, spanWrite)
	AdoptByTime(phase, spanObserve, spanFsync)
	kids := ChildrenOf(phase)
	var chunk, write, fsync Samples
	var busy, self, ioTime int64
	chunkFrames, chunks, fsyncs, written := 0, 0, 0, 0
	for i, s := range phase {
		switch s.Name {
		case spanObserve:
			chunks++
			chunkFrames += s.Count
			chunk.Add(float64(s.Dur()) / 1e3)
			busy += s.Dur()
			self += SelfTime(s, kids[i])
		case spanWrite:
			write.Add(float64(s.Dur()) / 1e3)
			written += s.Bytes
			ioTime += s.Dur()
		case spanFsync:
			fsyncs++
			fsync.Add(float64(s.Dur()) / 1e3)
			ioTime += s.Dur()
		}
	}
	tr.set("ingest.chunk_frames", ratio(float64(chunkFrames), float64(chunks)), "count")
	tr.set("ingest.chunk_us_p50", chunk.Quantile(0.50), "us")
	tr.set("ingest.chunk_us_p99", chunk.Quantile(0.99), "us")
	tr.set("ingest.busy_share", ratio(float64(busy), float64(wall.Nanoseconds())), "ratio")
	tr.set("core.observe_self_us_per_frame", ratio(float64(self)/1e3, float64(frames)), "us")
	tr.set("core.records_per_frame", ratio(float64(records), float64(frames)), "ratio")
	tr.set("storage.write_us_p50", write.Quantile(0.50), "us")
	tr.set("storage.fsync_us_p50", fsync.Quantile(0.50), "us")
	tr.set("storage.fsync_us_p99", fsync.Quantile(0.99), "us")
	tr.set("storage.frames_per_fsync", ratio(float64(frames), float64(fsyncs)), "ratio")
	tr.set("storage.bytes_per_record", ratio(float64(written), float64(records)), "B")
	// The blocking path of one frame: decode, the chunk's own work in
	// core, and the WAL write and fsync it waits on.
	tr.set("traced.blocking_us_per_frame", tr.M["frame.observe_decode_ns"].Value/1e3+
		ratio(float64(self+ioTime)/1e3, float64(frames)), "us")
}

// PerLayer assembles the --trace 1 metrics: the traced ledger plus the
// live run's generator diagnostics and program counters.
func PerLayer(l *Live, tr *TraceResult) map[string]Metric {
	m := map[string]Metric{}
	for k, v := range tr.M {
		m[k] = v
	}
	e2e := EndToEnd(l)
	m["gen.late_ms_p99"] = Metric{l.Late.Quantile(0.99), "ms"}
	m["gen.write_p99_ms"] = Metric{l.Write.Pooled().Quantile(0.99), "ms"}
	m["gen.decide_p99_us"] = Metric{l.Decide.Pooled().Quantile(0.99), "us"}
	m["gen.inaccessible_p99_us"] = Metric{l.Inacc.Pooled().Quantile(0.99), "us"}
	m["gen.write_samples"] = Metric{float64(l.Write.Pooled().N()), "count"}
	m["gen.decide_samples"] = Metric{float64(l.Decide.Pooled().N()), "count"}
	m["gen.inaccessible_samples"] = Metric{float64(l.Inacc.Pooled().N()), "count"}
	m["gen.us_per_op"] = Metric{ratio(1e6, e2e["ops_per_s"].Value), "us"}
	m["bus.evictions"] = Metric{float64(l.Evictions), "count"}
	m["bus.resubscribe_ms"] = Metric{l.Resub.Quantile(0.50), "ms"}
	epochs := float64(l.Stats.Cache.Epoch) - float64(l.StatsStart.Cache.Epoch)
	m["query.epochs_per_s"] = Metric{ratio(epochs, l.Steady.Seconds()), "1/s"}
	st := l.Stats
	var frames, chunks, evicted float64
	if st.Stream != nil {
		frames, chunks = float64(st.Stream.Ingest.Frames), float64(st.Stream.Ingest.Chunks)
		if st.Stream.Bus != nil {
			evicted = float64(st.Stream.Bus.Evicted)
		}
	}
	if fs := l.Follower.Stream; fs != nil && fs.Bus != nil {
		evicted += float64(fs.Bus.Evicted)
	}
	m["stats.frames_per_chunk"] = Metric{ratio(frames, chunks), "ratio"}
	m["stats.records_per_fsync"] = Metric{ratio(float64(st.Commit.Records), float64(st.Commit.Batches)), "ratio"}
	m["stats.cache_hit_ratio"] = Metric{ratio(float64(st.Cache.Hits), float64(st.Cache.Hits+st.Cache.Misses)), "ratio"}
	m["stats.bus_evictions"] = Metric{evicted, "count"}
	applied := 0.0
	if r := l.Follower.Replication; r != nil {
		applied = float64(r.AppliedSeq)
	}
	m["stats.replica_applied_seq"] = Metric{applied, "count"}
	return m
}
