package enforce

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/authz"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/profile"
)

// TestLimitedGrantAfterLongHistory: an n-limited grant is honoured
// exactly n times inside its entry duration however long the subject's
// history is, entries on both edges of [tis, tie] count, and an entry
// one chronon before tis does not.
func TestLimitedGrantAfterLongHistory(t *testing.T) {
	eng, store, _, moves := newEngine(t, graph.Fig4Graph())
	for _, l := range []graph.ID{"A", "B", "D"} {
		if _, err := store.Add(authz.New(interval.From(0), interval.From(0), "u", l, authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.Add(authz.New(iv("[0, 4999]"), interval.From(0), "u", "C", authz.Unlimited)); err != nil {
		t.Fatal(err)
	}
	limited, err := store.Add(authz.New(iv("[5000, 5100]"), interval.From(5000), "u", "C", 3))
	if err != nil {
		t.Fatal(err)
	}
	enter := func(tm interval.Time, l graph.ID) Decision {
		t.Helper()
		d, err := eng.Enter(tm, "u", l)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// A long unrelated history: laps of A→B→C→D, a thousand of them
	// through C, all before the limited window.
	enter(1, "A")
	lap := []graph.ID{"B", "C", "D", "A"}
	for tm := interval.Time(2); tm <= 4000; tm++ {
		if d := enter(tm, lap[(tm-2)%4]); !d.Granted {
			t.Fatalf("history step at %s: %v", tm, d)
		}
	}
	// Just before tis: granted by the unlimited grant, outside the window.
	if d := enter(4999, "C"); !d.Granted || d.Auth == limited.ID {
		t.Fatalf("entry at 4999: %v", d)
	}
	enter(4999, "D")

	granted := 0
	for _, tm := range []interval.Time{5000, 5050, 5100} {
		d := enter(tm, "C")
		if !d.Granted || d.Auth != limited.ID {
			t.Fatalf("entry %d at %s: %v", granted+1, tm, d)
		}
		granted++
		enter(tm, "D")
	}
	if granted != 3 {
		t.Fatalf("granted %d limited entries, want 3", granted)
	}
	if d := eng.Query(5100, "u", "C"); d.Granted || !d.Exhausted {
		t.Errorf("fourth request at tie: %v", d)
	}
	if got := moves.EntryCount("u", "C", limited.Entry); got != 3 {
		t.Errorf("entries counted in %s = %d, want 3", limited.Entry, got)
	}
	if got := moves.EntryCount("u", "C", interval.From(0)); got != 1004 {
		t.Errorf("entries into C overall = %d, want 1004", got)
	}
}

// TestOverstayMemoryBoundedByOpenStints: the monitor forgets a flagged
// stint once it closes, whether by leaving or by moving on.
func TestOverstayMemoryBoundedByOpenStints(t *testing.T) {
	eng, store, alerts, _ := newEngine(t, graph.Fig4Graph())
	const n = 50
	subjects := make([]profile.SubjectID, n)
	for i := range subjects {
		subjects[i] = profile.SubjectID(rune('a'+i%26)) + profile.SubjectID(rune('a'+i/26))
		if _, err := store.Add(authz.New(iv("[0, 10]"), iv("[0, 20]"), subjects[i], "A", authz.Unlimited)); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Enter(1, subjects[i], "A"); err != nil {
			t.Fatal(err)
		}
	}
	raised, err := eng.Tick(21)
	if err != nil || len(raised) != n {
		t.Fatalf("tick at 21: %d alerts, %v", len(raised), err)
	}
	if got := len(eng.overstayAlerted); got != n {
		t.Fatalf("overstay memory = %d, want %d", got, n)
	}
	for i, s := range subjects {
		if i%2 == 0 {
			err = eng.Leave(22, s)
		} else {
			_, err = eng.MoveTo(22, s, "B")
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := len(eng.overstayAlerted); got != 0 {
		t.Errorf("overstay memory after every stint closed = %d, want 0", got)
	}
	if got := len(alerts.ByKind(audit.Overstay)); got != 2*n {
		t.Errorf("overstay alerts = %d, want %d (one per tick, one per late exit)", got, 2*n)
	}
}

// TestOverstayAlertPerStintAtSameChronon: a stint that re-enters at the
// chronon its flagged predecessor entered has the same (subject, entry
// time) key, and must still be flagged. Engine.Enter never admits such a
// stint under an already-expired grant, so the stints go straight into
// the shared movement database; the monitor's memory has to be per stint
// whoever writes them.
func TestOverstayAlertPerStintAtSameChronon(t *testing.T) {
	eng, store, _, moves := newEngine(t, graph.Fig4Graph())
	a, err := store.Add(authz.New(iv("[1, 3]"), iv("[1, 4]"), "u", "A", authz.Unlimited))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := moves.RecordEnter(5, "u", "A", a.ID); err != nil {
		t.Fatal(err)
	}
	if raised, _ := eng.Tick(5); len(raised) != 1 {
		t.Fatalf("first stint: %v", raised)
	}
	if err := eng.Leave(5, "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := moves.RecordEnter(5, "u", "A", a.ID); err != nil {
		t.Fatal(err)
	}
	raised, err := eng.Tick(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(raised) != 1 || raised[0].Kind != audit.Overstay || raised[0].Subject != "u" {
		t.Errorf("re-entered stint at the same chronon: %v", raised)
	}
}
