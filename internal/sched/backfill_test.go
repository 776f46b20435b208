package sched

import (
	"fmt"
	"slices"
	"testing"

	"parsched/internal/core"
)

func TestEASYBackfillsShortJob(t *testing.T) {
	m := newMock(16)
	s := NewEASY()
	s.OnSubmit(m, jobEst(1, 0, 12, 1000, 1000)) // running; ends ~1000
	s.OnSubmit(m, jobEst(2, 0, 8, 100, 100))    // head, blocked (4 free)
	s.OnSubmit(m, jobEst(3, 0, 4, 500, 500))    // fits now; ends at 500 < shadow 1000
	if !m.startedSet()[3] {
		t.Fatalf("EASY should backfill job 3: %v", m.started)
	}
	if m.startedSet()[2] {
		t.Fatal("blocked head started")
	}
}

func TestEASYDoesNotDelayHead(t *testing.T) {
	m := newMock(16)
	s := NewEASY()
	s.OnSubmit(m, jobEst(1, 0, 12, 1000, 1000)) // ends 1000, shadow for head
	s.OnSubmit(m, jobEst(2, 0, 8, 100, 100))    // head, needs 8, free at 1000
	s.OnSubmit(m, jobEst(3, 0, 4, 2000, 2000))  // fits now (4 free), ends 2000 > shadow
	// Job 3 uses 4 procs; at shadow (1000) free = 16-4(job3 still running)
	// = 12, head needs 8, extra = 12-8 = 4 >= job3's 4... careful: job 3
	// IS the candidate. extra at shadow = profile.FreeAt(1000) - 8 =
	// (16-12[job1 gone]-... ) Let's just assert the invariant: if job 3
	// started, the head must still be able to start at time 1000.
	if m.startedSet()[3] {
		// Simulate to the shadow: finish job 1 at 1000.
		m.advance(1000)
		m.finish(s, 1)
		if !m.startedSet()[2] {
			t.Fatal("backfilled job delayed the head beyond its shadow")
		}
	}
}

func TestEASYBesideBackfill(t *testing.T) {
	// A long backfill job is allowed if it fits beside the head at the
	// shadow time.
	m := newMock(16)
	s := NewEASY()
	s.OnSubmit(m, jobEst(1, 0, 12, 1000, 1000))
	s.OnSubmit(m, jobEst(2, 0, 12, 100, 100)) // head: needs 12 at t=1000, extra = 16-12 = 4
	s.OnSubmit(m, jobEst(3, 0, 4, 9999, 9999))
	if !m.startedSet()[3] {
		t.Fatalf("4-proc job fits beside the 12-proc head forever: %v", m.started)
	}
}

func TestEASYFCFSWhenFits(t *testing.T) {
	m := newMock(16)
	s := NewEASY()
	s.OnSubmit(m, job(1, 0, 8, 100))
	s.OnSubmit(m, job(2, 0, 8, 100))
	if len(m.started) != 2 {
		t.Fatalf("both fit: %v", m.started)
	}
}

func TestEASYQueued(t *testing.T) {
	m := newMock(4)
	s := NewEASY()
	s.OnSubmit(m, job(1, 0, 4, 100))
	s.OnSubmit(m, job(2, 0, 4, 100))
	if q := s.Queued(); len(q) != 1 || q[0].ID != 2 {
		t.Fatalf("queued = %v", q)
	}
}

func TestEASYWindowsDrains(t *testing.T) {
	m := newMock(16)
	m.windows = []Window{{Start: 100, End: 200, Procs: 16}} // full outage
	s := NewEASYWindows()
	s.OnSubmit(m, jobEst(1, 0, 4, 500, 500)) // would cross the outage
	if len(m.started) != 0 {
		t.Fatal("easy+win must drain before a full outage")
	}
	s.OnSubmit(m, jobEst(2, 0, 4, 50, 50)) // ends before outage: backfill
	if !m.startedSet()[2] {
		t.Fatalf("short job should run before the outage: %v", m.started)
	}
}

func TestEASYPlainIgnoresWindows(t *testing.T) {
	m := newMock(16)
	m.windows = []Window{{Start: 100, End: 200, Procs: 16}}
	s := NewEASY()
	s.OnSubmit(m, jobEst(1, 0, 4, 500, 500))
	if len(m.started) != 1 {
		t.Fatal("plain EASY should ignore announced outages")
	}
}

func TestEASYWindowsRespectsReservations(t *testing.T) {
	m := newMock(16)
	m.resv = []Window{{Start: 50, End: 150, Procs: 12}}
	s := NewEASYWindows()
	// 8-proc job for 100s would overlap the reservation (only 4 free then).
	s.OnSubmit(m, jobEst(1, 0, 8, 100, 100))
	if len(m.started) != 0 {
		t.Fatal("job collides with reservation window")
	}
	// 4-proc job fits under the reservation.
	s.OnSubmit(m, jobEst(2, 0, 4, 100, 100))
	if !m.startedSet()[2] {
		t.Fatal("4-proc job fits beside the reservation")
	}
}

func TestConservativeBackfill(t *testing.T) {
	m := newMock(16)
	s := NewConservative()
	s.OnSubmit(m, jobEst(1, 0, 12, 1000, 1000))
	s.OnSubmit(m, jobEst(2, 0, 8, 100, 100))   // reserved at 1000
	s.OnSubmit(m, jobEst(3, 0, 4, 500, 500))   // ends 500 < 1000: backfill
	s.OnSubmit(m, jobEst(4, 0, 4, 2000, 2000)) // would delay job 2's reservation? 4 procs: at 1000 free=16-12(job1 done? job1 ends 1000)...
	if !m.startedSet()[3] {
		t.Fatalf("conservative should backfill job 3: %v", m.started)
	}
	if m.startedSet()[2] {
		t.Fatal("blocked job 2 must wait")
	}
}

func TestConservativeNeverDelaysEarlierJob(t *testing.T) {
	// The defining property: job 2's actual start must not exceed the
	// promise implied by estimates at its submittal.
	m := newMock(16)
	s := NewConservative()
	s.OnSubmit(m, jobEst(1, 0, 16, 1000, 1000)) // machine full until 1000
	s.OnSubmit(m, jobEst(2, 0, 16, 100, 100))   // promise: start at 1000
	s.OnSubmit(m, jobEst(3, 0, 1, 5000, 5000))  // must NOT start (would hold 1 proc past 1000)
	if m.startedSet()[3] {
		t.Fatal("conservative allowed a backfill that delays job 2")
	}
	m.advance(1000)
	m.finish(s, 1)
	if !m.startedSet()[2] {
		t.Fatalf("job 2 should start at its promised time: %v", m.started)
	}
	// Now job 3 can start beside job 2? Job 2 uses 16; no.
	if m.startedSet()[3] {
		t.Fatal("no room for job 3 yet")
	}
}

func TestConservativeWindowsDrains(t *testing.T) {
	m := newMock(16)
	m.windows = []Window{{Start: 100, End: 200, Procs: 16}}
	s := NewConservativeWindows()
	s.OnSubmit(m, jobEst(1, 0, 4, 500, 500))
	if len(m.started) != 0 {
		t.Fatal("cons+win must drain")
	}
	s.OnSubmit(m, jobEst(2, 0, 4, 100, 100))
	if !m.startedSet()[2] {
		t.Fatal("job ending exactly at outage start should run")
	}
}

func TestGangTimeShares(t *testing.T) {
	m := newMock(16)
	g := NewGang(2)
	j1, j2, j3 := job(1, 0, 16, 100), job(2, 0, 16, 100), job(3, 0, 16, 100)
	g.OnSubmit(m, j1)
	if m.shared[1] != 1 {
		t.Fatalf("single job should run at rate 1, got %v", m.shared[1])
	}
	g.OnSubmit(m, j2)
	if m.shared[1] != 0.5 || m.shared[2] != 0.5 {
		t.Fatalf("two rows should run at 0.5: %v", m.shared)
	}
	g.OnSubmit(m, j3) // exceeds 2 slots: queued
	if len(g.Queued()) != 1 {
		t.Fatalf("queue = %v", g.Queued())
	}
	g.OnFinish(m, j1)
	if m.shared[3] != 0.5 {
		t.Fatalf("queued job should enter the freed row: %v", m.shared)
	}
	g.OnFinish(m, j2)
	g.OnFinish(m, j3)
	if g.Rows() != 0 {
		t.Fatalf("rows = %d after all finish", g.Rows())
	}
}

func TestGangPacksSameRow(t *testing.T) {
	m := newMock(16)
	g := NewGang(3)
	g.OnSubmit(m, job(1, 0, 8, 100))
	g.OnSubmit(m, job(2, 0, 8, 100))
	// Both fit in one row: rate must stay 1.
	if g.Rows() != 1 {
		t.Fatalf("rows = %d, want 1 (packed)", g.Rows())
	}
	if m.shared[1] != 1 || m.shared[2] != 1 {
		t.Fatalf("rates = %v", m.shared)
	}
}

func TestGangPrefersFullestRow(t *testing.T) {
	m := newMock(16)
	g := NewGang(3)
	g.OnSubmit(m, job(1, 0, 10, 100)) // row A used 10
	g.OnSubmit(m, job(2, 0, 10, 100)) // row B used 10
	g.OnSubmit(m, job(3, 0, 4, 100))  // fits both; must join the fullest
	if g.Rows() != 2 {
		t.Fatalf("rows = %d, want 2", g.Rows())
	}
}

func TestMoldableEASYShrinksToStart(t *testing.T) {
	m := newMock(16)
	s := NewMoldableEASY()
	// Fill 12 procs.
	blocker := job(1, 0, 12, 1000)
	s.OnSubmit(m, blocker)
	// Moldable job wants 8 (blocked), but 4 are free and speedup is
	// perfect: should start at 4 procs with doubled runtime.
	mj := jobEst(2, 0, 8, 100, 200)
	mj.Class = core.Moldable
	mj.Speedup = perfectSpeedup{}
	mj.MinSize = 1
	mj.MaxSize = 16
	s.OnSubmit(m, mj)
	if !m.startedSet()[2] {
		t.Fatalf("moldable job should shrink and start: %v", m.started)
	}
	if mj.Size != 4 {
		t.Fatalf("molded size = %d, want 4", mj.Size)
	}
	if mj.Runtime != 200 {
		t.Fatalf("molded runtime = %d, want 200", mj.Runtime)
	}
}

func TestMoldableEASYKeepsSizeWhenFits(t *testing.T) {
	m := newMock(16)
	s := NewMoldableEASY()
	mj := jobEst(1, 0, 8, 100, 100)
	mj.Class = core.Moldable
	mj.Speedup = perfectSpeedup{}
	s.OnSubmit(m, mj)
	if mj.Size != 8 {
		t.Fatalf("size changed needlessly: %d", mj.Size)
	}
}

// perfectSpeedup is linear speedup for tests.
type perfectSpeedup struct{}

func (perfectSpeedup) Speedup(n int) float64 { return float64(n) }
func (perfectSpeedup) String() string        { return "perfect" }

// TestEASYReserveDepthProtectsSecondJob: with reserve=1 (classic EASY)
// a long backfill may delay the second queued job; with reserve=2 the
// second job holds a reservation the backfill must fit around.
func TestEASYReserveDepthProtectsSecondJob(t *testing.T) {
	run := func(reserve int) (*mockContext, *EASY) {
		m := newMock(10)
		s := &EASY{Reserve: reserve}
		s.OnSubmit(m, job(1, 0, 8, 100))  // fills most of the machine
		s.OnSubmit(m, job(2, 0, 4, 100))  // head: blocked until job 1 ends
		s.OnSubmit(m, job(3, 0, 6, 50))   // second: wants the post-head leftovers
		s.OnSubmit(m, job(4, 0, 2, 1000)) // long candidate backfill
		return m, s
	}

	// Classic EASY: job 4 fits beside the head's shadow reservation and
	// starts immediately — occupying processors job 3 needs until t=1000.
	m, _ := run(1)
	if !m.startedSet()[4] {
		t.Fatal("reserve=1: long job should backfill beside the head")
	}

	// reserve=2: job 3's slot at the head release is protected, so the
	// long job may not start now.
	m, s := run(2)
	if m.startedSet()[4] {
		t.Fatal("reserve=2: long backfill delays the protected second job")
	}
	m.advance(100)
	m.finish(s, 1)
	if !m.startedSet()[2] || !m.startedSet()[3] {
		t.Fatalf("protected jobs should start at the head release: %v", m.started)
	}
}

// TestEASYDeepReserveMatchesConservative: a reservation depth deeper
// than the queue decides as conservative backfilling (ReserveAll) does
// on this scenario.
func TestEASYDeepReserveMatchesConservative(t *testing.T) {
	drive := func(s Scheduler) []int64 {
		m := newMock(8)
		jobs := []*core.Job{
			job(1, 0, 6, 100), job(2, 0, 4, 200), job(3, 0, 2, 50),
			job(4, 0, 2, 400), job(5, 0, 8, 30),
		}
		for _, j := range jobs {
			s.OnSubmit(m, j)
		}
		m.advance(100)
		m.finish(s, 1)
		return append([]int64(nil), m.started...)
	}
	deep := drive(&EASY{Reserve: 100})
	cons := drive(NewConservative())
	if len(deep) != len(cons) {
		t.Fatalf("starts differ: deep=%v cons=%v", deep, cons)
	}
	for i := range deep {
		if deep[i] != cons[i] {
			t.Fatalf("start order differs: deep=%v cons=%v", deep, cons)
		}
	}
}

// TestWalkCutMatchesFullWalk drives a deep queue through a mock context
// and checks the walk cut: a fruitless pass walks only up to the last
// job that fits now, so it records fewer entries than there are queued
// jobs but marks the whole queue checked, and every start and the queue
// order stay those of a DisableLedger run, which walks every job. A
// pass with nothing changed resumes with no job left to test, cuts at
// once and commits the same ledger.
func TestWalkCutMatchesFullWalk(t *testing.T) {
	type step struct {
		at      int64
		id      int64
		size    int // > 0 submits job id; 0 finishes it; < 0 runs OnChange with nothing changed
		runtime int64
		walked  int // after a fruitless pass: expected ledger entries; -1 skips the check
	}
	steps := []step{
		{0, 1, 12, 1000, -1},
		{0, 2, 16, 100, -1},
		{0, 3, 4, 2000, 1}, // fits now until job 2's reservation is carved
		{0, 4, 8, 50, 1},
		{0, 0, -1, 0, 1},   // nothing changed
		{0, 5, 2, 500, -1}, // fits: the walk reserves jobs 3 and 4, then starts it
		{0, 6, 4, 100, 0},  // nothing fits: not one job is walked
		{500, 5, 0, 0, -1}, // job 6 backfills
		{600, 6, 0, 0, 1},
		{700, 0, -1, 0, 1},  // nothing changed but the clock
		{1000, 1, 0, 0, -1}, // job 2 starts on time
		{1100, 2, 0, 0, -1}, // jobs 3 and 4 start on time
	}
	type trace struct {
		started []int64
		queues  [][]int64
	}
	drive := func(t *testing.T, s Scheduler, ledger *resvLedger) trace {
		m := newMock(16)
		var tr trace
		for i, st := range steps {
			m.advance(st.at)
			switch {
			case st.size > 0:
				m.submit(s, job(st.id, st.at, st.size, st.runtime))
			case st.size == 0:
				m.finish(s, st.id)
			case ledger == nil:
				s.OnChange(m)
			default:
				entries, checked := slices.Clone(ledger.entries), ledger.checked
				s.OnChange(m)
				if !ledger.ok || !slices.Equal(ledger.entries, entries) || ledger.checked != checked {
					t.Fatalf("step %d: a pass with nothing changed left ok=%v entries=%v checked=%d, want the committed %v checked=%d",
						i, ledger.ok, ledger.entries, ledger.checked, entries, checked)
				}
			}
			q := s.(QueueReporter).Queued()
			ids := make([]int64, len(q))
			for k, j := range q {
				ids[k] = j.ID
			}
			tr.queues = append(tr.queues, ids)
			if ledger == nil || st.walked < 0 {
				continue
			}
			if !ledger.ok || len(ledger.entries) != st.walked || ledger.checked != len(q) {
				t.Fatalf("step %d: fruitless pass over %d queued jobs committed ok=%v entries=%d checked=%d, want %d entries and all checked",
					i, len(q), ledger.ok, len(ledger.entries), ledger.checked, st.walked)
			}
		}
		tr.started = m.started
		return tr
	}
	for _, tc := range []struct {
		name string
		mk   func(disable bool) (Scheduler, *resvLedger)
	}{
		{"cons", func(d bool) (Scheduler, *resvLedger) {
			s := &EASY{Reserve: ReserveAll, DisableLedger: d}
			return s, &s.ledger
		}},
		{"easy-deep", func(d bool) (Scheduler, *resvLedger) {
			s := &EASY{Reserve: 3, DisableLedger: d}
			return s, &s.ledger
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ledger := tc.mk(false)
			cut := drive(t, s, ledger)
			ref, _ := tc.mk(true)
			full := drive(t, ref, nil)
			if fmt.Sprint(cut.started) != fmt.Sprint(full.started) {
				t.Fatalf("starts diverged: cut %v, full walk %v", cut.started, full.started)
			}
			for i := range steps {
				if fmt.Sprint(cut.queues[i]) != fmt.Sprint(full.queues[i]) {
					t.Fatalf("step %d: queue diverged: cut %v, full walk %v", i, cut.queues[i], full.queues[i])
				}
			}
			if want := "[1 5 6 2 3 4]"; fmt.Sprint(cut.started) != want {
				t.Fatalf("started %v, want %s", cut.started, want)
			}
		})
	}
}

// TestDeepReserveStartsAfterPhaseOneJobFinishes: on 8 processors,
// EASY{Reserve: 2} runs job 1 while jobs 2, 3 (wider than the machine)
// and 4 queue. Job 1's finish at t=100 lets phase 1 start job 2, and
// the walk behind it commits. Job 2's finish at t=150 leaves the
// running set as empty as it was before job 2 started, and job 4 must
// start then: no pass may reuse a walk that predates the finish. The
// case runs through the stamped mock and with the stamps hidden.
func TestDeepReserveStartsAfterPhaseOneJobFinishes(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(Scheduler) Scheduler
	}{
		{"stamped", func(s Scheduler) Scheduler { return s }},
		{"stampless", func(s Scheduler) Scheduler { return stampless{s} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMock(8)
			s := tc.wrap(&EASY{Reserve: 2})
			for _, j := range []*core.Job{job(1, 0, 8, 100), job(2, 0, 8, 50), job(3, 0, 9, 10), job(4, 0, 8, 10)} {
				m.submit(s, j)
			}
			m.advance(100)
			m.finish(s, 1)
			if got := fmt.Sprint(m.started); got != "[1 2]" {
				t.Fatalf("job 2 alone should start at t=100, started %s", got)
			}
			m.advance(150)
			m.finish(s, 2)
			if got := fmt.Sprint(m.started); got != "[1 2 4]" {
				t.Fatalf("job 4 should start on the empty machine at t=150, started %s", got)
			}
		})
	}
}
