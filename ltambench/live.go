package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
	"repro/internal/stream"
	"repro/internal/wire"
)

// A run is rounds repetitions of (set-up, measured phase, restarts) on
// fresh daemons with the same inputs; set-up, recovery, RSS and disk
// figures are medians over the rounds, the others medians over windows
// of all rounds (see Series).
const (
	rounds           = 3
	restartsPerRound = 2
	ackPatience      = 30 * time.Second
)

// Decision is one issued POST /v1/request and what it returned. Anchor
// is the number of stream frames of its round applied before it (the
// replay evaluates it at that point).
type Decision struct {
	Round   int
	Anchor  int
	T       interval.Time
	Subject profile.SubjectID
	Room    graph.ID
	Granted bool
}

// Live is one end-to-end run against ltamd processes.
type Live struct {
	In       *Inputs
	Workload string
	Seconds  int
	Bin      string
	Work     string
	SiteDir  string

	primary, follower *Daemon
	dataDir, relayDir string

	SetupS    []float64
	RecoveryS []float64
	// Steady is the last round's steady phase.
	Steady time.Duration
	// Acks holds each round's final ingest ack tallies.
	Acks  []stream.Ack
	round int // the round being run

	mu        sync.Mutex // guards the samples and counters below
	Write     *Series    // ms: the workload's write latency (see README)
	Decide    *Series    // µs
	Inacc     *Series    // µs
	OpsS      *Series    // one sample per completed operation (ops_per_s)
	Churn     Samples    // ms: authorization mutation round trips (ingest)
	Late      Samples    // ms (open loop only)
	Resub     Samples    // ms
	Decisions []Decision
	Attempted int
	Failed    int
	Problems  []string
	Evictions int
	FinalAck  stream.Ack
	// Per round: peak RSS and data-dir bytes per WAL record.
	RSSMB          []float64
	BytesPerRecord []float64
	Stats          wire.StatsResponse
	StatsStart     wire.StatsResponse
	Follower       wire.StatsResponse
	// FeedFrom is the seq the fanout subscriber asked for first, FeedBase
	// the first seq it received, FeedNext one past the last.
	FeedFrom, FeedBase, FeedNext uint64
	// Served holds ltamd's Algorithm-1 answers for the sampled subjects.
	Served map[profile.SubjectID][]graph.ID
}

// window is the width of the windows the time-based workloads' medians
// are taken over.
const window = 500 * time.Millisecond

// NewLive prepares a run. Reads and ingest's steady-phase acks are
// windowed per round; throughput and fanout's continuous feed latency
// per window.
func NewLive(in *Inputs, workload string, seconds int, bin, work string) *Live {
	l := &Live{In: in, Workload: workload, Seconds: seconds, Bin: bin, Work: work, SiteDir: filepath.Join(work, "site")}
	wWrite := time.Duration(0)
	if workload == "fanout" {
		wWrite = window
	}
	l.Write, l.Decide, l.Inacc, l.OpsS = NewSeries(wWrite), NewSeries(0), NewSeries(0), NewSeries(window)
	return l
}

// startRound opens round r's measurement at base for length.
func (l *Live) startRound(r int, base time.Time, length time.Duration) {
	for _, s := range []*Series{l.Write, l.Decide, l.Inacc, l.OpsS} {
		s.StartRound(r, base, length)
	}
}

// roundLength is a time-based round's measured length.
func (l *Live) roundLength() time.Duration {
	return time.Duration(l.Seconds) * time.Second / rounds
}

func (l *Live) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Failed++
	if len(l.Problems) < 20 {
		l.Problems = append(l.Problems, fmt.Sprintf(format, args...))
	}
}

func (l *Live) attempt(n int) {
	l.mu.Lock()
	l.Attempted += n
	l.mu.Unlock()
}

// newClient is a read/control client on its own single connection.
func newClient(base string) *wire.Client {
	c := wire.NewClient(base)
	c.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
	return c
}

// writeSite writes graph.json and bounds.json for ltamd.
func writeSite(dir string, site *Site) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spec, err := json.Marshal(graph.ToSpec(site.Graph))
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "graph.json"), spec, 0o644); err != nil {
		return err
	}
	bounds, err := json.Marshal(site.Bounds)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "bounds.json"), bounds, 0o644)
}

func (l *Live) startPrimary(tag string) (*Daemon, error) {
	return StartDaemon(l.Bin, filepath.Join(l.Work, "ltamd-"+tag+".log"),
		"-data", l.dataDir,
		"-graph", filepath.Join(l.SiteDir, "graph.json"),
		"-bounds", filepath.Join(l.SiteDir, "bounds.json"))
}

// populate registers every subject and authorization over the admin API
// on two connections.
func populate(base string, in *Inputs) error {
	bySubject := map[profile.SubjectID][]authz.Authorization{}
	for _, g := range in.Grants {
		bySubject[g.Subject] = append(bySubject[g.Subject], g)
	}
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		go func(w int) {
			c := newClient(base)
			for i := w; i < len(in.Subjects); i += 2 {
				s := in.Subjects[i]
				if err := c.PutSubject(profile.Subject{ID: s}); err != nil {
					errs <- err
					return
				}
				for _, g := range bySubject[s] {
					if _, err := c.AddAuthorization(g); err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	err1, err2 := <-errs, <-errs
	return errors.Join(err1, err2)
}

func (in *Inputs) obsFrame(i int) *stream.ObserveFrame {
	f := in.Frames[i]
	p := in.Point(f)
	return &stream.ObserveFrame{Time: f.T, Subject: in.Walkers[f.W], X: p.X, Y: p.Y}
}

// setupOnce launches the primary (and the fanout follower), waits for
// readiness and populates; the returned duration is one setup_s sample.
func (l *Live) setupOnce(n int) (time.Duration, error) {
	l.dataDir = filepath.Join(l.Work, fmt.Sprintf("data-%d", n))
	l.relayDir = filepath.Join(l.Work, fmt.Sprintf("relay-%d", n))
	_ = os.RemoveAll(l.dataDir)
	_ = os.RemoveAll(l.relayDir)
	start := time.Now()
	p, err := l.startPrimary(fmt.Sprintf("setup%d", n))
	if err != nil {
		return 0, err
	}
	l.primary = p
	if err := p.WaitReady(60 * time.Second); err != nil {
		return 0, err
	}
	if err := populate(p.Base, l.In); err != nil {
		return 0, fmt.Errorf("populate: %w", err)
	}
	if l.Workload == "fanout" {
		f, err := StartDaemon(l.Bin, filepath.Join(l.Work, fmt.Sprintf("follower-%d.log", n)),
			"-replica-of", p.Base, "-relay", l.relayDir)
		if err != nil {
			return 0, err
		}
		l.follower = f
		if err := f.WaitReady(60 * time.Second); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// teardown stops whatever daemons are running.
func (l *Live) teardown() {
	if l.follower != nil {
		_ = l.follower.Stop()
		l.follower = nil
	}
	if l.primary != nil {
		_ = l.primary.Stop()
		l.primary = nil
	}
}

// Run performs the rounds. Each ends with the round's counters, peak
// RSS and data-dir size, then restartsPerRound restarts on its data dir
// for recovery_s, so those samples are spread over the run like the rest.
func (l *Live) Run() error {
	defer l.teardown()
	if err := writeSite(l.SiteDir, l.In.Site); err != nil {
		return err
	}
	for r := 0; r < rounds; r++ {
		if r > 0 {
			_ = os.RemoveAll(l.dataDir)
			_ = os.RemoveAll(l.relayDir)
		}
		d, err := l.setupOnce(r)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		l.SetupS = append(l.SetupS, d.Seconds())
		ctl := newClient(l.primary.Base)
		if err := getJSON(ctl.HTTP, l.primary.Base+"/v1/stats", &l.StatsStart); err != nil {
			return err
		}
		if l.StatsStart.Replication == nil {
			return errors.New("primary reports no replication coordinates")
		}
		ctl.HTTP.CloseIdleConnections()
		l.round = r
		if l.Workload == "fanout" {
			err = l.runFanout(r)
		} else {
			err = l.runIngest(r, ctl)
		}
		if err != nil {
			return err
		}
		l.Acks = append(l.Acks, l.FinalAck)
		if r == rounds-1 {
			if l.Served, err = ServedAnswers(ctl, SampleSubjects(l.In)); err != nil {
				return err
			}
		}
		if err := l.endRound(ctl); err != nil {
			return err
		}
	}
	return nil
}

// endRound reads the round's counters and peak RSS, stops the daemons,
// sizes the data dir and times the recovery restarts.
func (l *Live) endRound(ctl *wire.Client) error {
	if err := getJSON(ctl.HTTP, l.primary.Base+"/v1/stats", &l.Stats); err != nil {
		return err
	}
	if l.follower != nil {
		if err := getJSON(ctl.HTTP, l.follower.Base+"/v1/stats", &l.Follower); err != nil {
			return err
		}
	}
	if l.Stats.Replication == nil {
		return errors.New("primary reports no replication coordinates")
	}
	total := l.Stats.Replication.TotalSeq
	rss, err := l.primary.PeakRSSMB()
	if err != nil {
		return err
	}
	l.RSSMB = append(l.RSSMB, rss)
	l.teardown()
	bytes, err := dirBytes(l.dataDir)
	if err != nil {
		return err
	}
	l.BytesPerRecord = append(l.BytesPerRecord, ratio(float64(bytes), float64(total)))
	for n := 0; n < restartsPerRound; n++ {
		start := time.Now()
		p, err := l.startPrimary(fmt.Sprintf("recover%d", n))
		if err != nil {
			return err
		}
		l.primary = p
		if err := p.WaitReady(150 * time.Second); err != nil {
			return err
		}
		l.RecoveryS = append(l.RecoveryS, time.Since(start).Seconds())
		var st wire.ReplicationStatus
		l.attempt(1)
		if err := getJSON(ctl.HTTP, p.Base+"/v1/replication/status", &st); err != nil {
			l.problem("recovery status: %v", err)
		} else if msg := CheckRecovery(st.TotalSeq, total); msg != "" {
			l.problem("%s", msg)
		}
		l.teardown()
	}
	return nil
}

// decide issues one decision and records its latency and outcome.
func (l *Live) decide(c *wire.Client, d Decision) {
	start := time.Now()
	resp, err := c.Request(d.T, d.Subject, d.Room)
	el := time.Since(start)
	l.attempt(1)
	if err != nil {
		l.problem("decide: %v", err)
		return
	}
	if !resp.Granted && strings.Contains(resp.Reason, "precedes engine clock") {
		l.problem("decision denied by the engine clock: %s", resp.Reason)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Decide.Add(start, float64(el)/float64(time.Microsecond))
	d.Round, d.Granted = l.round, resp.Granted
	l.Decisions = append(l.Decisions, d)
}

// inaccessible issues one Algorithm-1 query.
func (l *Live) inaccessible(c *wire.Client, s profile.SubjectID) {
	start := time.Now()
	_, err := c.Inaccessible(s)
	el := time.Since(start)
	l.attempt(1)
	if err != nil {
		l.problem("inaccessible: %v", err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.Inacc.Add(start, float64(el)/float64(time.Microsecond))
}

// churn adds one authorization for a churn subject and revokes it; each
// mutation's round trip is a churn sample.
func (l *Live) churn(c *wire.Client, rng *rand.Rand) {
	s := l.In.Churn[rng.Intn(len(l.In.Churn))]
	room := l.In.Site.Rooms[rng.Intn(len(l.In.Site.Rooms))]
	a := authz.New(churnWindow(), churnWindow(), s, room, authz.Unlimited)
	start := time.Now()
	got, err := c.AddAuthorization(a)
	mid := time.Now()
	l.attempt(2)
	if err != nil {
		l.problem("churn add: %v", err)
		return
	}
	if _, err := c.RevokeAuthorization(got.ID); err != nil {
		l.problem("churn revoke: %v", err)
		return
	}
	end := time.Now()
	l.mu.Lock()
	l.Churn.AddDur(mid.Sub(start), time.Millisecond)
	l.Churn.AddDur(end.Sub(mid), time.Millisecond)
	l.mu.Unlock()
}

// randomNeighbour is a room adjacent to room r.
func (in *Inputs) randomNeighbour(rng *rand.Rand, r int32) graph.ID {
	ns := in.Site.Adj[r]
	return in.Site.Rooms[ns[rng.Intn(len(ns))]]
}

// runIngest is the closed-loop flood: a fixed frame count on one
// connection, sent in batches of tickEvery steps, each followed by an
// ack drain and a tick; then the steady phase with authorization churn.
// The flood reports throughput; its ack latency only restates the batch
// over throughput (and swung by a third of its median between seeds
// with the chunking), so the write latency of ingest is the steady
// phase's.
func (l *Live) runIngest(r int, ctl *wire.Client) error {
	in := l.In
	n := in.SteadyFrom
	o, err := OpenObserver(context.Background(), l.primary.Base, func(prev, acked uint64, at time.Time) {
		l.mu.Lock()
		defer l.mu.Unlock()
		for i := prev; i < acked && int(i) < n; i++ {
			l.OpsS.Add(at, 1)
		}
	})
	if err != nil {
		return err
	}
	u := len(in.Walkers)
	l.startRound(r, time.Now(), 0)
	for k := 0; k < n/u; k++ {
		for w := 0; w < u; w++ {
			i := k*u + w
			if err := o.Send(in.obsFrame(i)); err != nil {
				o.Abort()
				return err
			}
		}
		if err := o.Flush(); err != nil {
			o.Abort()
			return err
		}
		if !in.TickAfter[k] {
			continue
		}
		// Drain, then tick: every applied reading is at or before the
		// tick's time and no reading is in flight.
		if err := o.WaitAcked(uint64((k+1)*u), ackPatience); err != nil {
			o.Abort()
			return err
		}
		l.attempt(1)
		if _, err := ctl.Tick(in.Frames[k*u].T + 1); err != nil {
			l.problem("tick: %v", err)
		}
	}
	ack, err := o.Close()
	if err != nil {
		return fmt.Errorf("close ingest stream: %w", err)
	}
	l.checkAck(ack, n)
	ctl.HTTP.CloseIdleConnections()
	steady, err := l.steadyPhase(r, true)
	if err != nil {
		return err
	}
	l.FinalAck = addAcks(ack, steady)
	return nil
}

// steadyPhase streams the frames from SteadyFrom on at steadyRate on a
// new connection beside the paced read client (churning authorizations
// too when churn is set), and returns the final ack. Its reads are round
// r's decide and inaccessible samples.
func (l *Live) steadyPhase(r int, churn bool) (stream.Ack, error) {
	in := l.In
	ol, lat, err := l.startOpenLoop(steadyRate, in.SteadyFrom, len(in.Frames))
	if err != nil {
		return stream.Ack{}, err
	}
	l.Decide.StartRound(r, ol.sched.Start, 0)
	l.Inacc.StartRound(r, ol.sched.Start, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.readLoop(ol, done, steadyReadRate, churn)
	}()
	n := len(in.Frames) - in.SteadyFrom
	sendErr := ol.run()
	if sendErr == nil {
		sendErr = ol.o.WaitAcked(uint64(n), ackPatience)
	}
	close(done)
	wg.Wait()
	l.Steady = time.Since(ol.sched.Start)
	if sendErr != nil {
		ol.o.Abort()
		return stream.Ack{}, sendErr
	}
	ack, err := ol.o.Close()
	if err != nil {
		return stream.Ack{}, err
	}
	l.checkAck(ack, n)
	l.Late.v = append(l.Late.v, ol.late.v...)
	if l.Workload == "ingest" {
		l.Write.StartRound(r, ol.sched.Start, 0)
		for i, x := range lat {
			l.Write.Add(ol.sched.Due(i), x)
		}
	}
	return ack, nil
}

// addAcks adds the outcome tallies of two connections' final acks.
func addAcks(a, b stream.Ack) stream.Ack {
	return stream.Ack{Granted: a.Granted + b.Granted, Denied: a.Denied + b.Denied, Moved: a.Moved + b.Moved}
}

// checkAck requires every frame acked with no per-reading error.
func (l *Live) checkAck(ack stream.Ack, n int) {
	l.attempt(n)
	for _, p := range CheckAck(ack, n) {
		l.problem("%s", p)
	}
}

// openLoop sends a workload's frames on schedule and exposes the step
// gate the read client uses to stamp decisions safely.
type openLoop struct {
	in    *Inputs
	from  int // first frame sent; frame i is the schedule's (i-from)th
	to    int // one past the last frame sent
	o     *Observer
	sched Schedule
	// gate is held by the sender while it starts a new step and by the
	// read client for the whole of a decision, so no reading stamped
	// later than the decision is sent before the decision returns.
	gate sync.Mutex
	step atomic.Int64 // step being sent (-1 before the first frame)
	late Samples      // ms
}

func (ol *openLoop) run() error {
	in := ol.in
	u := len(in.Walkers)
	n := ol.to
	for i := ol.from; i < n; {
		now := time.Now()
		if due := ol.sched.Due(i - ol.from); now.Before(due) {
			if err := ol.o.Flush(); err != nil {
				return err
			}
			time.Sleep(due.Sub(now))
			continue
		}
		for i < n && !ol.sched.Due(i-ol.from).After(now) {
			if i%u == 0 {
				// Everything before the new step is on the wire before the
				// gate can make a decision wait for its acks.
				if err := ol.o.Flush(); err != nil {
					return err
				}
				ol.gate.Lock()
				ol.step.Store(int64(i / u))
				ol.gate.Unlock()
			}
			if err := ol.o.Send(in.obsFrame(i)); err != nil {
				return err
			}
			ol.late.AddDur(ol.sched.Late(i-ol.from, time.Now()), time.Millisecond)
			i++
		}
	}
	return ol.o.Flush()
}

// gatedDecision issues a decision for a subject whose reading of the
// current step is already applied, stamped with that step's time. It
// reports false when no such subject exists yet (the earlier steps are
// not all acked, or none of this step is); it never waits while holding
// the gate, so the sender is delayed by at most one decision.
func (l *Live) gatedDecision(ol *openLoop, c *wire.Client, rng *rand.Rand) bool {
	in := l.In
	u := len(in.Walkers)
	ol.gate.Lock()
	defer ol.gate.Unlock()
	k := int(ol.step.Load())
	if k < 0 {
		return false
	}
	first := k * u
	acked := ol.from + int(ol.o.Acked())
	m := acked - first
	if m <= 0 {
		return false
	}
	if m > u {
		m = u
	}
	f := in.Frames[first+rng.Intn(m)]
	l.decide(c, Decision{Anchor: acked, T: f.T, Subject: in.Walkers[f.W], Room: in.randomNeighbour(rng, f.Room)})
	return true
}

// startOpenLoop opens an ingest connection for frames [from, to) with
// per-frame ack latency measured from each frame's due time (lat is
// indexed like the connection's frames).
func (l *Live) startOpenLoop(rate float64, from, to int) (*openLoop, []float64, error) {
	n := to - from
	lat := make([]float64, n)
	ol := &openLoop{in: l.In, from: from, to: to}
	ol.step.Store(-1)
	o, err := OpenObserver(context.Background(), l.primary.Base, func(prev, acked uint64, at time.Time) {
		for i := prev; i < acked && int(i) < n; i++ {
			lat[i] = float64(at.Sub(ol.sched.Due(int(i)))) / float64(time.Millisecond)
		}
	})
	if err != nil {
		return nil, nil, err
	}
	ol.o = o
	ol.sched = Schedule{Start: time.Now().Add(5 * time.Millisecond), Rate: rate}
	return ol, lat, nil
}

// readLoop runs the steady phase's read client beside the open-loop
// stream until done closes: one read every 1/rate (gated decisions and
// Algorithm-1 queries alternate), each waiting for the previous one.
// With churn it also adds and revokes one authorization pair every
// 1/churnPairsPerSecond. A read slot missed behind a churn pair or a
// stall is not made up, so no burst of back-to-back reads follows.
func (l *Live) readLoop(ol *openLoop, done <-chan struct{}, rate float64, churn bool) {
	in := l.In
	c := newClient(l.primary.Base)
	rng := rand.New(rand.NewSource(in.Seed*13 + 1))
	churnRng := rand.New(rand.NewSource(in.Seed*17 + 1))
	period := time.Duration(float64(time.Second) / rate)
	next, nextChurn := ol.sched.Start, ol.sched.Start
	for ops := 0; ; ops++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-done:
			return
		default:
		}
		if churn && !time.Now().Before(nextChurn) {
			l.churn(c, churnRng)
			nextChurn = nextChurn.Add(time.Second / churnPairsPerSecond)
		}
		if ops%2 != 0 || !l.gatedDecision(ol, c, rng) {
			l.inaccessible(c, in.Roster[rng.Intn(len(in.Roster))])
		}
		if next = next.Add(period); next.Before(time.Now()) {
			next = time.Now()
		}
	}
}

// recordKinds are every WAL-backed event kind: a subscriber filtered to
// them receives every committed record and no alerts.
var recordKinds = []stream.EventKind{
	stream.KindEnter, stream.KindLeave, stream.KindGrant, stream.KindRevoke, stream.KindResolve,
	stream.KindRuleAdd, stream.KindRuleRemove, stream.KindProfilePut, stream.KindProfileRemove, stream.KindTick,
}

// feed is the fanout subscriber on the follower's event stream. It
// resubscribes from its next seq after an eviction and checks that the
// record seqs arrive exactly once, in order.
type feed struct {
	l     *Live
	base  string
	byKey map[uint64]int // walker<<40 | time → frame index
	sched Schedule
	got   atomic.Uint64 // next expected seq; set to the first seq asked for
	first bool
	gaps  int // events off the expected seq after the first (owned by run)
}

func feedKey(w int, t interval.Time) uint64 { return uint64(w)<<40 | uint64(t) }

func walkerIndex(s profile.SubjectID) (int, bool) {
	if len(s) < 2 || s[0] != 'u' {
		return 0, false
	}
	n, err := strconv.Atoi(string(s[1:]))
	return n, err == nil
}

// run subscribes until ctx ends.
func (fd *feed) run(ctx context.Context) error {
	c := wire.NewClient(fd.base)
	c.HTTP = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	fd.first = true
	var evictedAt time.Time
	for {
		from := fd.got.Load()
		es, err := c.Subscribe(ctx, wire.StreamSubscribeOptions{From: from, Kinds: recordKinds, Wire: wire.WireBinary})
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("subscribe from %d: %w", from, err)
		}
		if !evictedAt.IsZero() {
			fd.l.mu.Lock()
			fd.l.Resub.AddDur(time.Since(evictedAt), time.Millisecond)
			fd.l.mu.Unlock()
			evictedAt = time.Time{}
		}
		for {
			ev, err := es.Next()
			if err != nil {
				es.Close()
				if ctx.Err() != nil {
					return nil
				}
				return fmt.Errorf("event feed: %w", err)
			}
			at := time.Now()
			if ev.Kind == stream.KindError {
				fd.l.mu.Lock()
				fd.l.Evictions++
				fd.l.mu.Unlock()
				evictedAt = at
				es.Close()
				break
			}
			if fd.first {
				fd.first = false
				fd.l.FeedBase = ev.Seq
			} else if ev.Seq != fd.got.Load() {
				fd.gaps++
			}
			fd.got.Store(ev.Seq + 1)
			fd.l.mu.Lock()
			fd.l.OpsS.Add(at, 1)
			if ev.Kind == stream.KindEnter || ev.Kind == stream.KindLeave {
				if w, ok := walkerIndex(ev.Subject); ok {
					if i, ok := fd.byKey[feedKey(w, ev.Time)]; ok {
						due := fd.sched.Due(i)
						fd.l.Write.Add(due, float64(at.Sub(due))/float64(time.Millisecond))
					}
				}
			}
			fd.l.mu.Unlock()
		}
	}
}

// waitFeed waits up to a minute for the subscriber to have every record
// before seq; it reports false if the feed ended or the time ran out.
func waitFeed(fd *feed, seq uint64, feedErr <-chan error) bool {
	deadline := time.Now().Add(time.Minute)
	for fd.got.Load() < seq {
		if time.Now().After(deadline) || len(feedErr) > 0 {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// stopFeed ends the subscriber and waits for it; a feed error is
// returned, a subscriber short of seq is a failed check.
func (l *Live) stopFeed(fd *feed, cancel context.CancelFunc, feedErr <-chan error, seq uint64) error {
	cancel()
	if err := <-feedErr; err != nil {
		return err
	}
	if got := fd.got.Load(); got < seq {
		l.problem("feed stalled at seq %d of %d", got, seq)
	}
	return nil
}

// runFanout: open-loop ingest at fanoutRate on the primary with one
// binary subscriber on the relay follower's feed, then the steady phase;
// the subscriber must see every record of both, exactly once, in order.
// It subscribes from the primary's total_seq before the load, explicitly,
// so a follower whose feed starts later refuses it instead of silently
// starting at its horizon.
func (l *Live) runFanout(r int) error {
	in := l.In
	n := in.SteadyFrom
	ol, _, err := l.startOpenLoop(fanoutRate, 0, n)
	if err != nil {
		return err
	}
	fd := &feed{l: l, base: l.follower.Base, byKey: make(map[uint64]int, n), sched: ol.sched}
	l.FeedFrom = l.StatsStart.Replication.TotalSeq
	fd.got.Store(l.FeedFrom)
	for i, f := range in.Frames[:n] {
		fd.byKey[feedKey(int(f.W), f.T)] = i
	}
	l.startRound(r, ol.sched.Start, l.roundLength())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	feedErr := make(chan error, 1)
	go func() { feedErr <- fd.run(ctx) }()
	sendErr := ol.run()
	if sendErr == nil {
		sendErr = ol.o.WaitAcked(uint64(n), ackPatience)
	}
	if sendErr != nil {
		ol.o.Abort()
		return sendErr
	}
	load, err := ol.o.Close()
	if err != nil {
		return err
	}
	l.checkAck(load, n)
	// The steady phase starts once the subscriber has caught up, so its
	// reads do not compete with the follower's catch-up.
	if !waitFeed(fd, load.Seq, feedErr) {
		return l.stopFeed(fd, cancel, feedErr, load.Seq)
	}
	steady, err := l.steadyPhase(r, false)
	if err != nil {
		return err
	}
	ack := addAcks(load, steady)
	ack.Seq = steady.Seq
	// Every committed record must reach the subscriber and the follower.
	waitFeed(fd, ack.Seq, feedErr)
	if err := l.stopFeed(fd, cancel, feedErr, ack.Seq); err != nil {
		return err
	}
	l.FinalAck = ack
	l.FeedNext = fd.got.Load()
	l.Late.v = append(l.Late.v, ol.late.v...)
	var st wire.ReplicationStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		err := getJSON(http.DefaultClient, l.follower.Base+"/v1/replication/status", &st)
		if err == nil && st.AppliedSeq >= ack.Seq || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	l.attempt(2)
	for _, p := range CheckFeed(l.FeedFrom, l.FeedBase, l.FeedNext, st.AppliedSeq, ack.Seq, fd.gaps) {
		l.problem("%s", p)
	}
	return nil
}
