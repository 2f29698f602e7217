package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/authz"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// Site is the ltamsim grid building: side×side unit rooms with
// 4-neighbour corridors and the corner room r00_00 as the only entry.
type Site struct {
	Side    int
	Rooms   []graph.ID
	Centers []geometry.Point
	Bounds  []geometry.Boundary
	Graph   *graph.Graph
	Adj     [][]int // room index → neighbouring room indices
}

func roomName(r, c int) string { return fmt.Sprintf("r%02d_%02d", r, c) }

// NewSite builds the grid site. Room i is row i/side, column i%side.
func NewSite(side int) (*Site, error) {
	s := &Site{Side: side, Graph: graph.New("grid")}
	s.Bounds, s.Centers = geometry.UnitGrid(side, roomName)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			id := graph.ID(roomName(r, c))
			s.Rooms = append(s.Rooms, id)
			if err := s.Graph.AddLocation(id); err != nil {
				return nil, err
			}
		}
	}
	s.Adj = make([][]int, len(s.Rooms))
	link := func(a, b int) error {
		s.Adj[a] = append(s.Adj[a], b)
		s.Adj[b] = append(s.Adj[b], a)
		return s.Graph.AddEdge(s.Rooms[a], s.Rooms[b])
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			i := r*side + c
			if r+1 < side {
				if err := link(i, i+side); err != nil {
					return nil, err
				}
			}
			if c+1 < side {
				if err := link(i, i+1); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := s.Graph.SetEntry(s.Rooms[0]); err != nil {
		return nil, err
	}
	return s, nil
}

// Crowd composition of the walking population. The shares are fixed so
// a change to the program cannot be hidden by a friendlier mix.
const (
	shareTailgaters  = 0.05 // no authorizations: every entry is unauthorized
	shareOverstayers = 0.10 // windows close at horizon/4: overstay alerts
	shareLimited     = 0.25 // entry-limited: finite n and finite entry windows
	// walkersPerCrowd is the ingest-side population (ltamsim's sustain
	// default).
	walkersPerCrowd = 64
	// gridSide is the building size for every workload.
	gridSide = 4
)

// Frame is one generated reading: walker W moves into room Room at
// logical time T.
type Frame struct {
	T    interval.Time
	W    int32
	Room int32
}

// Inputs is one workload's seeded input set. The program receives only
// these: subjects, authorizations, readings, ticks, and the read/churn
// operations the generator draws from Roster and Churn.
type Inputs struct {
	Site     *Site
	Subjects []profile.SubjectID
	Grants   []authz.Authorization
	// Walkers are the moving subjects; Frames[k*len(Walkers)+i] is walker
	// i's reading in step k (every step moves every walker once, in walker
	// order). Frame times are non-decreasing.
	Walkers []profile.SubjectID
	Frames  []Frame
	// TickAfter lists the step indices after which a tick is issued (at
	// the step's time + 1), behind an ack drain.
	TickAfter map[int]bool
	// SteadyFrom is the first frame of the steady phase: the frames before
	// it are the workload's load, the rest go out at steadyRate beside the
	// paced read client.
	SteadyFrom int
	// Churn lists the subjects whose authorizations ingest's steady-phase
	// read client adds and revokes; no walker is among them, so churn
	// never changes a reading's outcome.
	Churn []profile.SubjectID
	// Roster is the subject set reads are drawn from.
	Roster []profile.SubjectID
	// Seed also seeds the read clients' choices.
	Seed int64
}

// Steps is the number of generated steps.
func (in *Inputs) Steps() int { return len(in.Frames) / len(in.Walkers) }

// Point is the reading coordinate of frame f (the room's centre).
func (in *Inputs) Point(f Frame) geometry.Point { return in.Site.Centers[f.Room] }

// Roles of the walking crowd.
const (
	roleRegular = iota
	roleTailgater
	roleOverstayer
	roleLimited
)

// crowdRoles assigns exact role counts (the shares above, rounded) to n
// walkers in a seeded order, so every seed has the same mix.
func crowdRoles(rng *rand.Rand, n int) []int {
	roles := make([]int, n)
	i := 0
	for _, rc := range []struct {
		role  int
		share float64
	}{{roleTailgater, shareTailgaters}, {roleOverstayer, shareOverstayers}, {roleLimited, shareLimited}} {
		for k := 0; k < int(float64(n)*rc.share+0.5); k++ {
			roles[i] = rc.role
			i++
		}
	}
	rng.Shuffle(n, func(a, b int) { roles[a], roles[b] = roles[b], roles[a] })
	return roles
}

// crowdGrants gives one walker the authorizations of its role; horizon
// bounds every window.
func crowdGrants(rng *rand.Rand, site *Site, s profile.SubjectID, role int, horizon interval.Time) []authz.Authorization {
	var out []authz.Authorization
	switch role {
	case roleTailgater:
	case roleOverstayer:
		w := interval.New(1, horizon/4)
		for _, room := range site.Rooms {
			out = append(out, authz.New(w, w, s, room, authz.Unlimited))
		}
	case roleLimited:
		for _, room := range site.Rooms {
			start := interval.Time(1 + rng.Int63n(int64(horizon/4)))
			end := start + horizon/2
			n := int64(2 + rng.Intn(4))
			out = append(out, authz.New(interval.New(start, end), interval.New(start, horizon), s, room, n))
		}
	default:
		w := interval.New(1, horizon)
		for _, room := range site.Rooms {
			out = append(out, authz.New(w, w, s, room, authz.Unlimited))
		}
	}
	return out
}

// walk generates steps×len(walkers) frames starting at time t0: each
// walker enters at the entry room, then moves to a random neighbour on
// every step. Ticks (when tickEvery > 0) take one time unit after every
// tickEvery-th step.
func walk(rng *rand.Rand, site *Site, walkers int, steps int, t0 interval.Time, tickEvery int) ([]Frame, map[int]bool, interval.Time) {
	frames := make([]Frame, 0, steps*walkers)
	ticks := map[int]bool{}
	at := make([]int, walkers)
	for i := range at {
		at[i] = -1
	}
	t := t0
	for k := 0; k < steps; k++ {
		for w := 0; w < walkers; w++ {
			next := 0
			if at[w] >= 0 {
				ns := site.Adj[at[w]]
				next = ns[rng.Intn(len(ns))]
			}
			at[w] = next
			frames = append(frames, Frame{T: t, W: int32(w), Room: int32(next)})
		}
		t++
		if tickEvery > 0 && k%tickEvery == tickEvery-1 {
			ticks[k] = true
			t++
		}
	}
	return frames, ticks, t
}

// Workload shapes.
const (
	// ingest: frames per round per requested second; each round's flood
	// lasts about a third of the requested seconds on a 2-vCPU host.
	ingestFramesPerSecond = 20000
	// tickEvery is ingest's steps between ack-drained ticks: the flood
	// sends tickEvery×walkersPerCrowd frames, waits for their acks, ticks.
	tickEvery = 16
	// The steady phase that ends ingest and fanout rounds: readings at a
	// normal rate while one paced client issues decisions over the
	// history the load built and Algorithm-1 queries. Reads beside the
	// load itself would measure a saturated host's noise.
	steadyRate     = 2000 // frames/s
	steadySeconds  = 1.5  // per round
	steadyReadRate = 3000 // reads/s
	// churnPairsPerSecond is ingest's steady-phase authorization churn:
	// each add and each revoke bumps the epoch and empties the
	// Algorithm-1 cache, so a share of the inaccessible reads run the
	// fixpoint uncached.
	churnPairsPerSecond = 20
	fanoutRate          = 10000 // fanout: offered frames/s
	churnSubjects       = 8
)

// Generate builds the inputs of one workload from its seed.
func Generate(workload string, seed int64, seconds int) (*Inputs, error) {
	site, err := NewSite(gridSide)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &Inputs{Site: site, Seed: seed}
	var walkers, steps, steady, tick int
	switch workload {
	case "ingest":
		walkers, tick = walkersPerCrowd, tickEvery
		steps = ingestFramesPerSecond * seconds / walkers
		steady = int(steadyRate*steadySeconds) / walkers
	case "fanout":
		walkers = walkersPerCrowd
		steps = fanoutRate * seconds / walkers / rounds
		steady = int(steadyRate*steadySeconds) / walkers
	default:
		return nil, fmt.Errorf("unknown workload %q (want ingest or fanout)", workload)
	}
	// The horizon comfortably exceeds the last reading's time, so windows
	// stay finite but open for the whole run.
	horizon := interval.Time(4 * (steps + steady + steps/tickEvery + 16))
	roles := crowdRoles(rng, walkers)
	for i := 0; i < walkers; i++ {
		s := profile.SubjectID(fmt.Sprintf("u%04d", i))
		in.Walkers = append(in.Walkers, s)
		in.Subjects = append(in.Subjects, s)
		in.Grants = append(in.Grants, crowdGrants(rng, site, s, roles[i], horizon)...)
	}
	for i := 0; i < churnSubjects; i++ {
		s := profile.SubjectID(fmt.Sprintf("c%03d", i))
		in.Churn = append(in.Churn, s)
		in.Subjects = append(in.Subjects, s)
		in.Grants = append(in.Grants, churnGrants(rng, site, s, horizon)...)
	}
	in.Roster = append(append([]profile.SubjectID{}, in.Walkers...), in.Churn...)
	in.Frames, in.TickAfter, _ = walk(rng, site, walkers, steps+steady, 1, tick)
	in.SteadyFrom = steps * walkers
	for k := steps; k < steps+steady; k++ {
		delete(in.TickAfter, k)
	}
	return in, nil
}

// churnGrants gives a churn subject time-windowed authorizations on a
// random subset of the rooms, always including the entry, so its
// Algorithm-1 answer is not trivial.
func churnGrants(rng *rand.Rand, site *Site, s profile.SubjectID, horizon interval.Time) []authz.Authorization {
	var out []authz.Authorization
	for i, room := range site.Rooms {
		if i != 0 && rng.Float64() >= 0.5 {
			continue
		}
		start := interval.Time(1 + rng.Int63n(int64(horizon/4)))
		end := start + horizon/2 + interval.Time(rng.Int63n(int64(horizon/4)))
		out = append(out, authz.New(interval.New(start, end), interval.New(start, horizon), s, room, authz.Unlimited))
	}
	return out
}

// churnWindow is the entry and exit window of the churn authorizations
// (open for the whole run).
func churnWindow() interval.Interval { return interval.New(1, 1<<40) }

// Schedule is an open-loop send plan: frame i is due at Start + i/Rate.
// Latency is measured from a frame's due time, so a generator stall is
// charged to the frames it delayed, and lateness (send − due) is
// reported separately.
type Schedule struct {
	Start time.Time
	Rate  float64 // frames per second
}

// Due is frame i's due time.
func (s Schedule) Due(i int) time.Time {
	return s.Start.Add(time.Duration(float64(i) * float64(time.Second) / s.Rate))
}

// Late is how far past its due time frame i was sent (never negative).
func (s Schedule) Late(i int, sent time.Time) time.Duration {
	if d := sent.Sub(s.Due(i)); d > 0 {
		return d
	}
	return 0
}
