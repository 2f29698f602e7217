// Package movement implements LTAM's location & movements database
// (Fig. 3): the append-only log of user movements, the derived per-user
// presence state, entry counting for Definition 7's "entered l during
// [tis, tie] for less than n times", and the co-location queries behind
// the paper's SARS contact-tracing motivation (§1).
package movement

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// EventKind distinguishes entering from leaving a location.
type EventKind int

// The movement event kinds.
const (
	Enter EventKind = iota
	Exit
)

func (k EventKind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Exit:
		return "exit"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one recorded movement.
type Event struct {
	// Seq is the log sequence number, assigned by the database.
	Seq uint64
	// Time is the logical time the movement happened.
	Time interval.Time
	// Subject moved; Location is the room entered or left.
	Subject  profile.SubjectID
	Location graph.ID
	Kind     EventKind
	// Auth is the authorization under which an Enter was granted (zero
	// for ungranted movements such as tailgating, which the enforcement
	// engine still records before raising an alert).
	Auth authz.ID
}

// Stint is one contiguous stay of a subject in a location: [Enter, Exit].
// An open stint (subject still inside) has Exit == interval.Inf.
type Stint struct {
	Subject  profile.SubjectID
	Location graph.ID
	Enter    interval.Time
	Exit     interval.Time
	// Auth is the authorization that admitted the stint (zero if none).
	Auth authz.ID
}

// Open reports whether the subject is still inside.
func (s Stint) Open() bool { return s.Exit == interval.Inf }

// Interval returns the stint as a time interval.
func (s Stint) Interval() interval.Interval { return interval.New(s.Enter, s.Exit) }

// Contact is one co-location record produced by ContactsOf.
type Contact struct {
	Other    profile.SubjectID
	Location graph.ID
	Overlap  interval.Interval
}

// Errors returned by the movement database.
var (
	ErrAlreadyInside = errors.New("movement: subject already inside a location")
	ErrNotInside     = errors.New("movement: subject not inside any location")
	ErrTimeRegress   = errors.New("movement: event time precedes an earlier event")
)

// DB is the movement database. It is safe for concurrent use.
type DB struct {
	mu            sync.RWMutex
	events        []Event
	nextSeq       uint64
	lastTime      interval.Time
	stints        []Stint
	openBySubject map[profile.SubjectID]int // index into stints
	bySubject     map[profile.SubjectID][]int
	byLocation    map[graph.ID][]int
	// entries holds each (subject, location) pair's entry times. Event
	// times never regress, so every list is sorted by construction.
	entries map[entryKey][]interval.Time
}

type entryKey struct {
	s profile.SubjectID
	l graph.ID
}

// NewDB returns an empty movement database.
func NewDB() *DB {
	return &DB{
		nextSeq:       1,
		lastTime:      interval.MinTime,
		openBySubject: make(map[profile.SubjectID]int),
		bySubject:     make(map[profile.SubjectID][]int),
		byLocation:    make(map[graph.ID][]int),
		entries:       make(map[entryKey][]interval.Time),
	}
}

// RecordEnter logs subject s entering location l at time t under the
// given authorization (zero when the entry was not granted). The database
// is strict: a subject must exit its current location before entering
// another (the enforcement engine decomposes a room-to-room transition
// into exit+enter), and event times must be non-decreasing.
func (db *DB) RecordEnter(t interval.Time, s profile.SubjectID, l graph.ID, auth authz.ID) (Event, error) {
	if s == "" || l == "" {
		return Event{}, errors.New("movement: empty subject or location")
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	if idx, inside := db.openBySubject[s]; inside {
		return Event{}, fmt.Errorf("%w: %s is in %s", ErrAlreadyInside, s, db.stints[idx].Location)
	}
	ev := db.appendLocked(Event{Time: t, Subject: s, Location: l, Kind: Enter, Auth: auth})
	idx := len(db.stints)
	db.stints = append(db.stints, Stint{Subject: s, Location: l, Enter: t, Exit: interval.Inf, Auth: auth})
	db.openBySubject[s] = idx
	db.bySubject[s] = append(db.bySubject[s], idx)
	db.byLocation[l] = append(db.byLocation[l], idx)
	k := entryKey{s, l}
	db.entries[k] = append(db.entries[k], t)
	return ev, nil
}

// RecordExit logs subject s leaving its current location at time t and
// returns the event together with the closed stint.
func (db *DB) RecordExit(t interval.Time, s profile.SubjectID) (Event, Stint, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t < db.lastTime {
		return Event{}, Stint{}, fmt.Errorf("%w: %s < %s", ErrTimeRegress, t, db.lastTime)
	}
	idx, inside := db.openBySubject[s]
	if !inside {
		return Event{}, Stint{}, fmt.Errorf("%w: %s", ErrNotInside, s)
	}
	st := &db.stints[idx]
	st.Exit = t
	delete(db.openBySubject, s)
	ev := db.appendLocked(Event{Time: t, Subject: s, Location: st.Location, Kind: Exit, Auth: st.Auth})
	return ev, *st, nil
}

func (db *DB) appendLocked(ev Event) Event {
	ev.Seq = db.nextSeq
	db.nextSeq++
	db.lastTime = ev.Time
	db.events = append(db.events, ev)
	return ev
}

// CurrentLocation returns where subject s currently is.
func (db *DB) CurrentLocation(s profile.SubjectID) (graph.ID, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	idx, inside := db.openBySubject[s]
	if !inside {
		return "", false
	}
	return db.stints[idx].Location, true
}

// Occupants returns the subjects currently inside location l, sorted.
func (db *DB) Occupants(l graph.ID) []profile.SubjectID {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []profile.SubjectID
	for s, idx := range db.openBySubject {
		if db.stints[idx].Location == l {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EntryCount returns how many times subject s entered location l with
// entry time inside window — the count Definition 7 compares against n.
// It costs O(log k) for the k entries of s into l and allocates nothing.
func (db *DB) EntryCount(s profile.SubjectID, l graph.ID, window interval.Interval) int {
	if window.IsEmpty() {
		return 0
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	times := db.entries[entryKey{s, l}]
	lo := sort.Search(len(times), func(i int) bool { return times[i] >= window.Start })
	hi := sort.Search(len(times), func(i int) bool { return times[i] > window.End })
	return hi - lo
}

// History returns all stints of subject s in chronological order.
func (db *DB) History(s profile.SubjectID) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Stint, 0, len(db.bySubject[s]))
	for _, idx := range db.bySubject[s] {
		out = append(out, db.stints[idx])
	}
	return out
}

// StintsIn returns the stints in location l whose presence interval
// overlaps window, in chronological order.
func (db *DB) StintsIn(l graph.ID, window interval.Interval) []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Stint
	for _, idx := range db.byLocation[l] {
		st := db.stints[idx]
		if st.Interval().Overlaps(window) {
			out = append(out, st)
		}
	}
	return out
}

// WhoWasIn returns the distinct subjects present in location l at some
// point of window, sorted.
func (db *DB) WhoWasIn(l graph.ID, window interval.Interval) []profile.SubjectID {
	seen := map[profile.SubjectID]bool{}
	for _, st := range db.StintsIn(l, window) {
		seen[st.Subject] = true
	}
	out := make([]profile.SubjectID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContactsOf returns every co-location of subject s with another subject
// during window: pairs that were inside the same location at overlapping
// times, with the overlap interval. This is the movement-database query
// behind the paper's SARS motivation — "users who were in contact with
// diagnosed SARS patients could be traced".
func (db *DB) ContactsOf(s profile.SubjectID, window interval.Interval) []Contact {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []Contact
	for _, idx := range db.bySubject[s] {
		mine := db.stints[idx]
		span := mine.Interval().Intersect(window)
		if span.IsEmpty() {
			continue
		}
		for _, oidx := range db.byLocation[mine.Location] {
			other := db.stints[oidx]
			if other.Subject == s {
				continue
			}
			overlap := other.Interval().Intersect(span)
			if !overlap.IsEmpty() {
				out = append(out, Contact{Other: other.Subject, Location: mine.Location, Overlap: overlap})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Overlap.Start != out[j].Overlap.Start {
			return out[i].Overlap.Start < out[j].Overlap.Start
		}
		return out[i].Other < out[j].Other
	})
	return out
}

// Events returns a copy of the whole movement log.
func (db *DB) Events() []Event {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Event, len(db.events))
	copy(out, db.events)
	return out
}

// EventsSince returns events with Seq > seq, for incremental consumers.
func (db *DB) EventsSince(seq uint64) []Event {
	db.mu.RLock()
	defer db.mu.RUnlock()
	i := sort.Search(len(db.events), func(i int) bool { return db.events[i].Seq > seq })
	out := make([]Event, len(db.events)-i)
	copy(out, db.events[i:])
	return out
}

// Len returns the number of logged events.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.events)
}

// Stats is a constant-time summary of how much history the database
// holds: its logged events, its stints (open ones included), the open
// stints alone, and the (subject, location) keys of the entry index.
type Stats struct {
	Events     int `json:"events"`
	Stints     int `json:"stints"`
	OpenStints int `json:"open_stints"`
	EntryKeys  int `json:"entry_keys"`
}

// Stats reports the database's size in O(1).
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return Stats{
		Events:     len(db.events),
		Stints:     len(db.stints),
		OpenStints: len(db.openBySubject),
		EntryKeys:  len(db.entries),
	}
}

// LastTime returns the time of the most recent event, or interval.MinTime
// when the log is empty.
func (db *DB) LastTime() interval.Time {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lastTime
}

// OpenStints returns the stints of subjects currently inside a location,
// sorted by subject — the working set for the engine's overstay monitor.
func (db *DB) OpenStints() []Stint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Stint, 0, len(db.openBySubject))
	for _, idx := range db.openBySubject {
		out = append(out, db.stints[idx])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Subject < out[j].Subject })
	return out
}

// Snapshot returns the event log for persistence.
func (db *DB) Snapshot() []Event {
	return db.Events()
}

// Restore rebuilds the database by replaying the given event log.
func (db *DB) Restore(events []Event) error {
	fresh := NewDB()
	for _, ev := range events {
		var err error
		switch ev.Kind {
		case Enter:
			_, err = fresh.RecordEnter(ev.Time, ev.Subject, ev.Location, ev.Auth)
		case Exit:
			_, _, err = fresh.RecordExit(ev.Time, ev.Subject)
		default:
			err = fmt.Errorf("movement: restore: unknown event kind %d", ev.Kind)
		}
		if err != nil {
			return fmt.Errorf("movement: restore seq %d: %w", ev.Seq, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	fresh.mu.Lock()
	defer fresh.mu.Unlock()
	db.events = fresh.events
	db.nextSeq = fresh.nextSeq
	db.lastTime = fresh.lastTime
	db.stints = fresh.stints
	db.openBySubject = fresh.openBySubject
	db.bySubject = fresh.bySubject
	db.byLocation = fresh.byLocation
	db.entries = fresh.entries
	return nil
}
