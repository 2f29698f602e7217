package movement

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// naiveEntryCount is the Def. 7 count as a scan over every stint of the
// subject — the oracle the indexed EntryCount must agree with.
func naiveEntryCount(db *DB, s profile.SubjectID, l graph.ID, window interval.Interval) int {
	n := 0
	for _, st := range db.History(s) {
		if st.Location == l && window.Contains(st.Enter) {
			n++
		}
	}
	return n
}

// randomLog drives db through a seeded walk of several subjects over a
// few rooms. Time advances by 0–2 chronons a step, so same-chronon
// events are common, and an exit is sometimes followed by a re-entry at
// the same chronon. It returns every entry time it recorded.
func randomLog(t *testing.T, db *DB, rng *rand.Rand, subjects []profile.SubjectID, rooms []graph.ID, steps int) []interval.Time {
	t.Helper()
	var entered []interval.Time
	now := interval.Time(1)
	enter := func(s profile.SubjectID) {
		if _, err := db.RecordEnter(now, s, rooms[rng.Intn(len(rooms))], 0); err != nil {
			t.Fatal(err)
		}
		entered = append(entered, now)
	}
	for i := 0; i < steps; i++ {
		now += interval.Time(rng.Intn(3))
		s := subjects[rng.Intn(len(subjects))]
		if _, inside := db.CurrentLocation(s); !inside {
			enter(s)
			continue
		}
		if _, _, err := db.RecordExit(now, s); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(3) == 0 {
			enter(s) // same-chronon re-entry
		}
	}
	return entered
}

// TestEntryCountMatchesNaiveScan checks the indexed Def. 7 count against
// the stint scan over random logs, on the live database and on one
// rebuilt from its snapshot.
func TestEntryCountMatchesNaiveScan(t *testing.T) {
	subjects := []profile.SubjectID{"alice", "bob", "carol", "dave"}
	rooms := []graph.ID{"A", "B", "C"}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := NewDB()
			entered := randomLog(t, db, rng, subjects, rooms, 400)
			restored := NewDB()
			if err := restored.Restore(db.Snapshot()); err != nil {
				t.Fatal(err)
			}
			last := db.LastTime()
			windows := []interval.Interval{
				interval.Empty,
				interval.New(interval.MinTime, interval.Inf),
				interval.New(last+1, interval.Inf),
			}
			for i := 0; i < 60; i++ {
				a := interval.Time(rng.Int63n(int64(last) + 2))
				b := a + interval.Time(rng.Int63n(int64(last)/2+1))
				windows = append(windows, interval.New(a, b))
				// Windows with an edge exactly on a recorded entry time.
				e := entered[rng.Intn(len(entered))]
				windows = append(windows, interval.New(e, b+e), interval.New(e-a, e), interval.Point(e))
			}
			for _, w := range windows {
				for _, s := range append(subjects, "ghost") {
					for _, l := range append(rooms, "nowhere") {
						want := naiveEntryCount(db, s, l, w)
						if got := db.EntryCount(s, l, w); got != want {
							t.Fatalf("live EntryCount(%s, %s, %s) = %d, want %d", s, l, w, got, want)
						}
						if got := restored.EntryCount(s, l, w); got != want {
							t.Fatalf("restored EntryCount(%s, %s, %s) = %d, want %d", s, l, w, got, want)
						}
					}
				}
			}
			if db.Stats() != restored.Stats() {
				t.Errorf("stats diverge after restore: live %+v, restored %+v", db.Stats(), restored.Stats())
			}
		})
	}
}

// TestEntryCountSameChronon: exit and re-entry in one chronon are two
// entries, and a point window on that chronon counts both.
func TestEntryCountSameChronon(t *testing.T) {
	db := NewDB()
	_, _ = db.RecordEnter(5, "alice", "A", 0)
	_, _, _ = db.RecordExit(5, "alice")
	_, _ = db.RecordEnter(5, "alice", "A", 0)
	_, _, _ = db.RecordExit(7, "alice")
	_, _ = db.RecordEnter(7, "alice", "A", 0)
	for _, c := range []struct {
		w    string
		want int
	}{
		{"[5, 5]", 2}, {"[4, 5]", 2}, {"[5, 6]", 2}, {"[5, 7]", 3},
		{"[6, 6]", 0}, {"[6, 7]", 1}, {"[7, inf]", 1}, {"[8, inf]", 0},
	} {
		if got := db.EntryCount("alice", "A", iv(c.w)); got != c.want {
			t.Errorf("EntryCount in %s = %d, want %d", c.w, got, c.want)
		}
	}
}

func TestStats(t *testing.T) {
	db := NewDB()
	if got := db.Stats(); got != (Stats{}) {
		t.Errorf("empty stats = %+v", got)
	}
	_, _ = db.RecordEnter(1, "alice", "A", 0)
	_, _, _ = db.RecordExit(2, "alice")
	_, _ = db.RecordEnter(3, "alice", "A", 0)
	_, _ = db.RecordEnter(3, "bob", "B", 0)
	want := Stats{Events: 4, Stints: 3, OpenStints: 2, EntryKeys: 2}
	if got := db.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestEntryCountAllocsNothing(t *testing.T) {
	db := NewDB()
	for i := 0; i < 100; i++ {
		_, _ = db.RecordEnter(interval.Time(2*i), "alice", "A", 0)
		_, _, _ = db.RecordExit(interval.Time(2*i+1), "alice")
	}
	w := iv("[10, 150]")
	if allocs := testing.AllocsPerRun(100, func() { db.EntryCount("alice", "A", w) }); allocs != 0 {
		t.Errorf("EntryCount allocates %.1f times per call", allocs)
	}
}
