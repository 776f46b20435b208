//go:build debugchecks

package sched

// Negative controls for the ledger and walk-cut dual-runs: deliberately
// corrupt a committed ledger entry, or break the cut's premise, and
// assert the cross-validation notices before the scheduler acts on it.
// A cross-validation that never fires is indistinguishable from one
// that is wired to nothing; CI runs these under -tags debugchecks to
// prove the alarms are live.

import (
	"strings"
	"testing"

	"parsched/internal/core"
)

// ledgerResumeScenario drives conservative backfilling to a committed,
// resumable ledger with one walked entry and one cut job: job 1 takes
// six of eight processors, job 2 needs all eight and is blocked, and
// job 3 fits now until job 2's reservation is carved, so its pass walks
// job 2, cuts job 3 and commits. The clock then advances without
// reaching the reservation, and the next submit must take the resume
// path — which, under debugchecks, replays the recorded prefix from
// scratch first.
func ledgerResumeScenario(t *testing.T) (*mockContext, *EASY) {
	t.Helper()
	m := newMock(8)
	c := NewConservative()
	m.submit(c, job(1, 0, 6, 100))
	if !m.startedSet()[1] {
		t.Fatal("scenario: job 1 should start immediately")
	}
	m.submit(c, job(2, 0, 8, 50))
	m.submit(c, job(3, 0, 2, 200))
	if m.startedSet()[2] || m.startedSet()[3] {
		t.Fatal("scenario: jobs 2 and 3 should be blocked behind job 1")
	}
	if !c.ledger.ok || len(c.ledger.entries) != 1 || c.ledger.checked != 2 {
		t.Fatalf("scenario: fruitless pass should commit 1 walked entry of 2 checked, ledger ok=%v entries=%d checked=%d",
			c.ledger.ok, len(c.ledger.entries), c.ledger.checked)
	}
	m.advance(10)
	return m, c
}

// mustPanic runs fn and asserts it panics with a message mentioning
// the named dual-run.
func mustPanic(t *testing.T, what, alarm string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: corruption went undetected", what)
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, alarm) {
			panic(r) // not ours: re-raise
		}
	}()
	fn()
}

func TestLedgerCorruptionTripsDualRun(t *testing.T) {
	// Control: an intact ledger resumes without tripping and the new
	// arrival, which ends before job 1 does, backfills. If this fails
	// the corruption subtests below prove nothing — the resume path was
	// never reached.
	t.Run("intact", func(t *testing.T) {
		m, c := ledgerResumeScenario(t)
		m.submit(c, job(4, 10, 2, 30))
		if !m.startedSet()[4] || m.startedSet()[3] {
			t.Fatalf("resume should backfill job 4 and keep job 3 queued, started %v", m.started)
		}
	})

	t.Run("corrupt-start", func(t *testing.T) {
		m, c := ledgerResumeScenario(t)
		c.ledger.entries[0].start -= 5
		mustPanic(t, "recorded start", "ledger dual-run", func() { m.submit(c, job(4, 10, 2, 30)) })
	})

	t.Run("corrupt-estimate", func(t *testing.T) {
		m, c := ledgerResumeScenario(t)
		c.ledger.entries[0].est += 60
		mustPanic(t, "recorded estimate", "ledger dual-run", func() { m.submit(c, job(4, 10, 2, 30)) })
	})

	t.Run("corrupt-snapshot", func(t *testing.T) {
		m, c := ledgerResumeScenario(t)
		c.ledger.frees[len(c.ledger.frees)-1]--
		mustPanic(t, "profile snapshot", "ledger dual-run", func() { m.submit(c, job(4, 10, 2, 30)) })
	})

	// A checked frontier past the queue positions the pass really
	// tested claims job 4 was cut although it fits now. The submit
	// stamp moves with it, or the resume check would refuse the ledger
	// before the dual-run sees it.
	t.Run("corrupt-checked", func(t *testing.T) {
		m, c := ledgerResumeScenario(t)
		c.ledger.checked++
		c.ledger.subEpoch++
		mustPanic(t, "checked frontier", "ledger dual-run", func() { m.submit(c, job(4, 10, 2, 30)) })
	})
}

// TestWalkCutTripsDualRun is the negative control for the cut dual-run
// (verifyCut). The walk cut skips every job behind the last one that
// fits now, on the premise that nothing a pass does can make a job that
// failed FitsAt fit again. A context that shrinks a queued job from
// inside Start breaks that premise: on 8 processors, jobs 1 and 2 run,
// job 3 needs the whole machine, job 4 fits in the 4 processors job 1
// frees at t=100, and job 5 does not until job 4's start shrinks it to
// 2. The pass cuts job 5 after starting job 4, and the dual-run must
// find that job 5 would start.
func TestWalkCutTripsDualRun(t *testing.T) {
	drive := func(s Scheduler, shrink bool) (*mockContext, func()) {
		m := newMock(8)
		s.OnSubmit(m, job(1, 0, 4, 100))
		s.OnSubmit(m, job(2, 0, 4, 1000))
		j4, j5 := job(4, 0, 2, 50), job(5, 0, 6, 50)
		for _, j := range []*core.Job{job(3, 0, 8, 50), j4, j5} {
			s.OnSubmit(m, j)
		}
		if len(m.started) != 2 {
			t.Fatalf("scenario: only jobs 1 and 2 should start at t=0, started %v", m.started)
		}
		if shrink {
			m.onStart = func(j *core.Job) {
				if j == j4 {
					j5.Size = 2
				}
			}
		}
		m.advance(100)
		return m, func() { m.finish(s, 1) }
	}
	for _, tc := range []struct {
		name string
		mk   func() Scheduler
	}{
		{"cons", func() Scheduler { return NewConservative() }},
		{"easy-deep", func() Scheduler { return &EASY{Reserve: 4} }},
	} {
		// Control: with sizes frozen the pass starts job 4, cuts job 5,
		// and nothing trips.
		t.Run(tc.name+"/intact", func(t *testing.T) {
			m, finish := drive(tc.mk(), false)
			finish()
			if got := m.startedSet(); !got[4] || got[3] || got[5] {
				t.Fatalf("job 4 alone should start at t=100, started %v", m.started)
			}
		})
		t.Run(tc.name+"/skipped-start", func(t *testing.T) {
			_, finish := drive(tc.mk(), true)
			mustPanic(t, "skipped job that would start", "cut dual-run", finish)
		})
	}
}
