package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/stream"
	"repro/internal/wire"
)

// Tally is the outcome counts of one round's readings, which the live
// acks and the replay must agree on.
type Tally struct {
	Granted, Denied, Moved uint64
}

// Replay applies the inputs sequentially to a fresh non-durable
// core.System — the reference the live outcomes are checked against. It
// returns the readings' tally and whether each decision is granted,
// indexed like decisions. Decisions are evaluated (side-effect free) at
// their anchors, so those of every round share one replay; churn is
// left out because it only touches subjects that never move.
func Replay(in *Inputs, decisions []Decision) (Tally, []bool, error) {
	var t Tally
	granted := make([]bool, len(decisions))
	sys, err := core.Open(core.Config{Graph: in.Site.Graph, Boundaries: in.Site.Bounds, AutoDerive: true})
	if err != nil {
		return t, nil, err
	}
	defer sys.Close()
	for _, s := range in.Subjects {
		if err := sys.PutSubject(profile.Subject{ID: s}); err != nil {
			return t, nil, err
		}
	}
	for _, g := range in.Grants {
		if _, err := sys.AddAuthorization(g); err != nil {
			return t, nil, err
		}
	}
	order := make([]int, len(decisions))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return decisions[order[i]].Anchor < decisions[order[j]].Anchor })
	u := len(in.Walkers)
	next := 0
	evalUpTo := func(applied int) {
		for ; next < len(order) && decisions[order[next]].Anchor <= applied; next++ {
			d := decisions[order[next]]
			granted[order[next]] = sys.Query(d.T, d.Subject, d.Room).Granted
		}
	}
	batch := make([]core.Reading, 0, u)
	for k := 0; k < in.Steps(); k++ {
		for w := 0; w < u; w++ {
			i := k*u + w
			// A decision anchored inside this step sees exactly the
			// readings applied before it.
			if next < len(order) && decisions[order[next]].Anchor <= i {
				if err := observe(sys, batch, &t); err != nil {
					return t, nil, err
				}
				batch = batch[:0]
				evalUpTo(i)
			}
			f := in.Frames[i]
			batch = append(batch, core.Reading{Time: f.T, Subject: in.Walkers[f.W], At: in.Point(f)})
		}
		if err := observe(sys, batch, &t); err != nil {
			return t, nil, err
		}
		batch = batch[:0]
		evalUpTo((k + 1) * u)
		if in.TickAfter[k] {
			if _, err := sys.Tick(in.Frames[k*u].T + 1); err != nil {
				return t, nil, err
			}
		}
	}
	evalUpTo(len(in.Frames))
	return t, granted, nil
}

func observe(sys *core.System, batch []core.Reading, t *Tally) error {
	if len(batch) == 0 {
		return nil
	}
	out, err := sys.ObserveBatch(batch)
	if err != nil {
		return err
	}
	for _, o := range out {
		switch {
		case o.Err != nil:
			return fmt.Errorf("replay: reading failed: %w", o.Err)
		case o.Entered && o.Decision.Granted:
			t.Moved++
			t.Granted++
		case o.Entered:
			t.Moved++
			t.Denied++
		case o.Moved:
			t.Moved++
		}
	}
	return nil
}

// CheckRounds compares each round's final ack tallies with the replay's
// (every round streams the same readings) and returns one message per
// disagreeing round.
func CheckRounds(acks []stream.Ack, want Tally) []string {
	var out []string
	for r, a := range acks {
		if a.Granted != want.Granted || a.Denied != want.Denied || a.Moved != want.Moved {
			out = append(out, fmt.Sprintf("round %d ingest outcomes granted/denied/moved %d/%d/%d, replay %d/%d/%d",
				r, a.Granted, a.Denied, a.Moved, want.Granted, want.Denied, want.Moved))
		}
	}
	return out
}

// CheckDecisions compares each live decision with the replay's outcome
// for it and returns one message per wrong decision.
func CheckDecisions(ds []Decision, want []bool) []string {
	var out []string
	for i, d := range ds {
		if d.Granted != want[i] {
			out = append(out, fmt.Sprintf("round %d decision %s→%s at %d after %d readings: granted=%v, replay %v",
				d.Round, d.Subject, d.Room, d.T, d.Anchor, d.Granted, want[i]))
		}
	}
	return out
}

// algorithmSample is how many subjects the Algorithm-1 check compares.
const algorithmSample = 8

// SampleSubjects draws the subjects the Algorithm-1 check compares.
func SampleSubjects(in *Inputs) []profile.SubjectID {
	rng := rand.New(rand.NewSource(in.Seed ^ 0xa1))
	out := make([]profile.SubjectID, 0, algorithmSample)
	for _, i := range rng.Perm(len(in.Roster))[:algorithmSample] {
		out = append(out, in.Roster[i])
	}
	return out
}

// NaiveAnswers computes the brute-force Definition-8 answer for each
// subject over the generated authorizations (churn always revokes what
// it adds, so these are the authorizations at the end of a round).
func NaiveAnswers(in *Inputs, subjects []profile.SubjectID) (map[profile.SubjectID][]graph.ID, error) {
	store := authz.NewStore()
	if _, err := store.AddAll(in.Grants); err != nil {
		return nil, err
	}
	flat := graph.Expand(in.Site.Graph)
	out := map[profile.SubjectID][]graph.ID{}
	for _, s := range subjects {
		out[s] = sortedIDs(query.NaiveFindInaccessible(flat, store, s, 0))
	}
	return out, nil
}

func sortedIDs(ids []graph.ID) []graph.ID {
	out := append([]graph.ID{}, ids...)
	slices.Sort(out)
	return out
}

// CheckAnswers compares served Algorithm-1 answers with the naive ones.
func CheckAnswers(got, want map[profile.SubjectID][]graph.ID) []string {
	var out []string
	for s, w := range want {
		g, ok := got[s]
		if !ok {
			out = append(out, fmt.Sprintf("no Algorithm-1 answer for %s", s))
			continue
		}
		if !slices.Equal(sortedIDs(g), w) {
			out = append(out, fmt.Sprintf("Algorithm 1 for %s = %v, naive %v", s, sortedIDs(g), w))
		}
	}
	return out
}

// ServedAnswers asks a live ltamd for the sampled subjects' answers.
func ServedAnswers(c *wire.Client, subjects []profile.SubjectID) (map[profile.SubjectID][]graph.ID, error) {
	out := map[profile.SubjectID][]graph.ID{}
	for _, s := range subjects {
		resp, err := c.Inaccessible(s)
		if err != nil {
			return nil, fmt.Errorf("inaccessible %s: %w", s, err)
		}
		out[s] = resp.Inaccessible
	}
	return out, nil
}

// CheckFeed verifies the fanout subscriber saw every committed record
// from the seq it asked for (from) exactly once, in seq order, and the
// follower caught up. feedBase is the first seq it received.
func CheckFeed(from, feedBase, feedNext, followerApplied, primaryTotal uint64, gaps int) []string {
	var out []string
	if feedBase != from {
		out = append(out, fmt.Sprintf("subscriber asked for seq %d, feed started at %d", from, feedBase))
	}
	if gaps != 0 {
		out = append(out, fmt.Sprintf("%d out-of-order or duplicate feed events", gaps))
	}
	if feedNext != primaryTotal {
		out = append(out, fmt.Sprintf("subscriber stopped at seq %d (from %d), primary total_seq %d", feedNext, feedBase, primaryTotal))
	}
	if followerApplied != primaryTotal {
		out = append(out, fmt.Sprintf("follower applied_seq %d, primary total_seq %d", followerApplied, primaryTotal))
	}
	return out
}

// CheckAck requires the final ack to cover all n frames with no
// per-reading error.
func CheckAck(ack stream.Ack, n int) []string {
	var out []string
	if ack.Acked != uint64(n) {
		out = append(out, fmt.Sprintf("final ack covers %d frames, want %d", ack.Acked, n))
	}
	if ack.Errors != 0 {
		out = append(out, fmt.Sprintf("%d readings failed, last: %s", ack.Errors, ack.LastError))
	}
	return out
}

// CheckRecovery requires a restarted primary to report the run's
// total_seq.
func CheckRecovery(got, want uint64) string {
	if got != want {
		return fmt.Sprintf("restarted ltamd reports total_seq %d, want %d", got, want)
	}
	return ""
}
