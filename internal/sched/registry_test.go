package sched

import (
	"strings"
	"testing"
)

// legacyNames is the scheduler catalogue as it stood before the spec
// grammar: every one of these must keep building, forever.
var legacyNames = []string{
	"fcfs", "firstfit", "sjf", "ljf", "smallest", "lxf",
	"easy", "easy+win", "easy+mold", "cons", "cons+win",
	"gang", "gang2", "gang3", "gang5",
}

// TestNamesCannotDrift is the structural anti-drift regression: every
// name Names() lists must build, every registered family must be
// listed, and every legacy name must still be accepted and listed.
// Before the registry, gang2/gang5 were accepted by New but absent
// from Names(); a derived listing makes that class of bug impossible.
func TestNamesCannotDrift(t *testing.T) {
	listed := map[string]bool{}
	for _, name := range Names() {
		listed[name] = true
		s, err := New(name)
		if err != nil {
			t.Errorf("listed name %q does not build: %v", name, err)
			continue
		}
		if s.Name() == "" {
			t.Errorf("%q builds a scheduler with an empty Name", name)
		}
	}
	for _, f := range Families() {
		if !listed[f.Name] {
			t.Errorf("family %q not in Names()", f.Name)
		}
		for alias := range f.Aliases {
			if !listed[alias] {
				t.Errorf("alias %q of family %q not in Names()", alias, f.Name)
			}
		}
	}
	for _, name := range legacyNames {
		if !listed[name] {
			t.Errorf("legacy name %q missing from Names()", name)
		}
	}
}

// TestLegacyNamesBuildIdentically: each legacy name and its canonical
// spec construct the same scheduler configuration.
func TestLegacyNamesBuildIdentically(t *testing.T) {
	mustNew := func(name string) Scheduler {
		t.Helper()
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		return s
	}

	if e := mustNew("easy").(*EASY); e.Windows || e.Reserve != 1 {
		t.Errorf("easy = %+v", e)
	}
	for _, spec := range []string{"easy+win", "easy(window)"} {
		if e := mustNew(spec).(*EASY); !e.Windows {
			t.Errorf("%s did not set Windows", spec)
		}
	}
	for _, spec := range []string{"cons+win", "cons(window)"} {
		if c := mustNew(spec).(*EASY); !c.Windows || c.Reserve != ReserveAll {
			t.Errorf("%s = %+v, want Windows at depth ReserveAll", spec, c)
		}
	}
	for _, c := range []struct {
		spec string
		mpl  int
	}{{"gang", 3}, {"gang2", 2}, {"gang3", 3}, {"gang5", 5}, {"gang(mpl=7)", 7}} {
		if g := mustNew(c.spec).(*Gang); g.Slots != c.mpl {
			t.Errorf("%s: slots = %d, want %d", c.spec, g.Slots, c.mpl)
		}
	}
	for _, spec := range []string{"easy+mold", "easy(mold)"} {
		m := mustNew(spec).(*Moldable)
		if _, ok := m.Inner.(*EASY); !ok {
			t.Errorf("%s inner = %T", spec, m.Inner)
		}
		if m.Name() != "easy+mold" {
			t.Errorf("%s name = %q", spec, m.Name())
		}
	}
	if m := mustNew("fcfs(mold, moldmax=2)").(*Moldable); m.MaxStretch != 2 {
		t.Errorf("moldmax not applied: %+v", m)
	}
	if q := mustNew("fcfs(drain)").(*QueueScheduler); !q.DrainAware {
		t.Error("fcfs(drain) did not set DrainAware")
	}
	// Legacy display names are preserved (result tables depend on them).
	for name, want := range map[string]string{
		"easy": "easy", "easy+win": "easy+win", "easy+mold": "easy+mold",
		"cons": "cons", "cons+win": "cons+win",
		"gang": "gang", "gang3": "gang", "gang5": "gang(mpl=5)",
		"fcfs": "fcfs", "lxf": "lxf",
		"easy(reserve=2)":         "easy(reserve=2)",
		"easy(reserve=2, window)": "easy(reserve=2, window)",
		"fcfs(drain)":             "fcfs(drain)",
		// Decorated schedulers label themselves by canonical spec too,
		// so any table label feeds back into Parse.
		"sjf(mold)":               "sjf(mold)",
		"easy(mold, reserve=2)":   "easy(mold, reserve=2)",
		"fcfs(mold, moldmax=2)":   "fcfs(mold, moldmax=2)",
		"easy(mold, moldmax=4.0)": "easy+mold",
	} {
		if got := mustNew(name).Name(); got != want {
			t.Errorf("New(%q).Name() = %q, want %q", name, got, want)
		}
	}
}

func TestUsageDerivedFromRegistry(t *testing.T) {
	u := Usage()
	for _, f := range Families() {
		if !strings.Contains(u, f.Name) {
			t.Errorf("usage missing family %q", f.Name)
		}
	}
	for _, want := range []string{"mpl", "reserve", "window", "drain", "mold", "easy+win", "gang3"} {
		if !strings.Contains(u, want) {
			t.Errorf("usage missing %q", want)
		}
	}
}
