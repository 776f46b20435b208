package sim

// Tests pinning the incrementally-maintained scheduler views against
// their from-scratch reference computations: the ExpEnd-ordered running
// set (maintained on start/finish/kill instead of re-sorted per
// callback) and the visibility-filtered outage/reservation windows.

import (
	"sort"
	"testing"

	"parsched/internal/des"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
)

// checkRunningOrder asserts Running() is strictly sorted by
// (ExpEnd, job ID) and equals a from-scratch rebuild from the running
// map — the order the pre-incremental implementation produced.
func checkRunningOrder(t *testing.T, sm *Instance) {
	t.Helper()
	got := sm.Running()
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.ExpEnd > b.ExpEnd || (a.ExpEnd == b.ExpEnd && a.Job.ID >= b.Job.ID) {
			t.Fatalf("Running() out of order at %d: (%d,%d) before (%d,%d)",
				i, a.ExpEnd, a.Job.ID, b.ExpEnd, b.Job.ID)
		}
	}
	if len(got) != len(sm.running) {
		t.Fatalf("Running() has %d entries, map has %d", len(got), len(sm.running))
	}
	want := make([]sched.RunningJob, 0, len(sm.running))
	for _, rs := range sm.running {
		want = append(want, sched.RunningJob{Job: rs.job, Size: rs.size, Start: rs.start, ExpEnd: rs.expEnd})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].ExpEnd != want[j].ExpEnd {
			return want[i].ExpEnd < want[j].ExpEnd
		}
		return want[i].Job.ID < want[j].Job.ID
	})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Running()[%d] = %+v, reference = %+v", i, got[i], want[i])
		}
	}
}

// TestRunningSortedAcrossOutageKills steps a failure-heavy EASY run
// event by event, checking the running-set order after every event —
// kills remove jobs from the middle of the order.
func TestRunningSortedAcrossOutageKills(t *testing.T) {
	w := lublin.Default().Generate(model.Config{
		MaxNodes: 16, Jobs: 200, Seed: 11, Load: 0.9, EstimateFactor: 1.5,
	})
	log := &outage.Log{}
	span := w.Jobs[len(w.Jobs)-1].Submit
	for i := int64(0); i < 12; i++ {
		start := (i + 1) * span / 13
		log.Records = append(log.Records, outage.Record{
			ID: i + 1, Announced: start, Start: start, End: start + 3600,
			Kind: outage.CPUFailure, Nodes: []int64{i % 16, (i + 5) % 16},
		})
	}
	engine := des.NewEngine(len(w.Jobs))
	sm, err := NewInstance(engine, w.Name, w.MaxNodes, sched.NewEASY(), Options{Outages: log})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Clone().Jobs {
		sm.SubmitAt(j, j.Submit)
	}
	if err := scheduleOutages(engine, sm, log); err != nil {
		t.Fatal(err)
	}
	kills := 0
	for engine.Step() {
		checkRunningOrder(t, sm)
		for _, o := range sm.outcomes {
			if o.Restarts > 0 {
				kills++
				break
			}
		}
	}
	if kills == 0 {
		t.Fatal("outage log produced no kills; test exercises nothing")
	}
	if len(sm.running) != 0 || len(sm.runOrder) != 0 {
		t.Fatalf("drained run left %d/%d running entries", len(sm.running), len(sm.runOrder))
	}
}

// TestRunningSortedAcrossRateChanges steps a gang-scheduled run, whose
// shared jobs change execution rate as the Ousterhout matrix refills.
func TestRunningSortedAcrossRateChanges(t *testing.T) {
	w := lublin.Default().Generate(model.Config{
		MaxNodes: 16, Jobs: 200, Seed: 3, Load: 1.1, EstimateFactor: 1.5,
	})
	s, err := sched.New("gang")
	if err != nil {
		t.Fatal(err)
	}
	engine := des.NewEngine(len(w.Jobs))
	sm, err := NewInstance(engine, w.Name, w.MaxNodes, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, j := range w.Clone().Jobs {
		sm.SubmitAt(j, j.Submit)
	}
	for engine.Step() {
		checkRunningOrder(t, sm)
		for _, rs := range sm.running {
			if rs.shared {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("gang run produced no shared jobs; test exercises nothing")
	}
}

// TestVisibleWindowsMatchesReference replays the retired per-call
// filter over a shadow copy of the window list and checks the
// compacting implementation produces identical output at every instant.
func TestVisibleWindowsMatchesReference(t *testing.T) {
	mk := func() []timedWindow {
		return []timedWindow{
			{win: sched.Window{Start: 0, End: 50, Procs: 1}, announced: 0},
			{win: sched.Window{Start: 100, End: 200, Procs: 2}, announced: 40},
			{win: sched.Window{Start: 60, End: 70, Procs: 3}, announced: 60},
			{win: sched.Window{Start: 10, End: 1000, Procs: 4}, announced: 0},
			{win: sched.Window{Start: PlanningHorizon + 500, End: PlanningHorizon + 600, Procs: 5}, announced: 0},
			{win: sched.Window{Start: 150, End: 160, Procs: 6}, announced: 150},
		}
	}
	reference := func(wins []timedWindow, now int64) []sched.Window {
		var out []sched.Window
		for _, tw := range wins {
			if tw.announced <= now && tw.win.End > now && tw.win.Start <= now+PlanningHorizon {
				out = append(out, tw.win)
			}
		}
		return out
	}
	shadow := mk()
	live := mk()
	var buf []sched.Window
	for _, now := range []int64{0, 10, 45, 55, 65, 99, 150, 250, 999, 1500, PlanningHorizon + 550} {
		want := reference(shadow, now)
		var until int64
		live, buf, until = visibleWindows(live, buf[:0], now, false)
		if len(buf) != len(want) {
			t.Fatalf("now=%d: got %v, want %v", now, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("now=%d: got %v, want %v", now, buf, want)
			}
		}
		// The memo bound promises the visible set is unchanged strictly
		// before `until`: re-deriving it at until-1 must match buf.
		if until <= now {
			t.Fatalf("now=%d: memo bound %d not in the future", now, until)
		}
		if probe := until - 1; probe > now {
			again := reference(shadow, probe)
			if len(again) != len(buf) {
				t.Fatalf("now=%d: visible set changed before memo bound %d: %v vs %v",
					now, until, again, buf)
			}
			for i := range again {
				if again[i] != buf[i] {
					t.Fatalf("now=%d: visible set changed before memo bound %d: %v vs %v",
						now, until, again, buf)
				}
			}
		}
	}
	// By the final instant only the far-future window's End is still
	// ahead of the clock; everything else must have been compacted out.
	if len(live) != 1 || live[0].win.Procs != 5 {
		t.Fatalf("compaction kept %v", live)
	}
}

// TestVisibleWindowsSortedMatchesReference runs the same probe battery
// over a Start-sorted window list and checks the binary-search fast
// path produces a visible set identical to the retired per-call filter,
// with a memo bound that never admits a stale set.
func TestVisibleWindowsSortedMatchesReference(t *testing.T) {
	mk := func() []timedWindow {
		return []timedWindow{
			{win: sched.Window{Start: 0, End: 50, Procs: 1}, announced: 0},
			{win: sched.Window{Start: 10, End: 1000, Procs: 4}, announced: 0},
			{win: sched.Window{Start: 60, End: 70, Procs: 3}, announced: 60},
			{win: sched.Window{Start: 100, End: 200, Procs: 2}, announced: 40},
			{win: sched.Window{Start: 150, End: 160, Procs: 6}, announced: 150},
			{win: sched.Window{Start: PlanningHorizon + 500, End: PlanningHorizon + 600, Procs: 5}, announced: 0},
			{win: sched.Window{Start: PlanningHorizon + 5000, End: PlanningHorizon + 5600, Procs: 7}, announced: 0},
		}
	}
	reference := func(wins []timedWindow, now int64) []sched.Window {
		var out []sched.Window
		for _, tw := range wins {
			if tw.announced <= now && tw.win.End > now && tw.win.Start <= now+PlanningHorizon {
				out = append(out, tw.win)
			}
		}
		return out
	}
	shadow := mk()
	live := mk()
	var buf []sched.Window
	for _, now := range []int64{0, 10, 45, 55, 65, 99, 150, 250, 999, 1500, PlanningHorizon + 550, PlanningHorizon + 5100} {
		want := reference(shadow, now)
		var until int64
		live, buf, until = visibleWindows(live, buf[:0], now, true)
		if len(buf) != len(want) {
			t.Fatalf("now=%d: got %v, want %v", now, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("now=%d: got %v, want %v", now, buf, want)
			}
		}
		if until <= now {
			t.Fatalf("now=%d: memo bound %d not in the future", now, until)
		}
		if probe := until - 1; probe > now {
			again := reference(shadow, probe)
			if len(again) != len(buf) {
				t.Fatalf("now=%d: visible set changed before memo bound %d: %v vs %v",
					now, until, again, buf)
			}
			for i := range again {
				if again[i] != buf[i] {
					t.Fatalf("now=%d: visible set changed before memo bound %d: %v vs %v",
						now, until, again, buf)
				}
			}
		}
		// Compaction must preserve Start order, or the next call's
		// binary search would be meaningless.
		for i := 1; i < len(live); i++ {
			if live[i].win.Start < live[i-1].win.Start {
				t.Fatalf("now=%d: compaction broke Start order: %v", now, live)
			}
		}
	}
	if len(live) != 1 || live[0].win.Procs != 7 {
		t.Fatalf("compaction kept %v", live)
	}
}
