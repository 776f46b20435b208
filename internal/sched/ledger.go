package sched

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/debugchecks"
)

// ledgerSwept is the start a ledger entry records for a job beyond the
// reservation depth that was offered immediate backfill and rejected.
const ledgerSwept = int64(-2)

// ledgerEntry is one walked job's outcome: identity, the inputs the
// decision depended on (estimate and size — both frozen after submit;
// the moldable adapter molds before the job ever reaches a queue), and
// the start it was promised. A job within the depth that can never fit
// (bigger than the possibly-degraded machine) is held unreserved and
// records EarliestFit's -1; a swept job records ledgerSwept.
type ledgerEntry struct {
	id    int64
	est   int64
	size  int
	start int64
}

// resvLedger makes conservative-style passes resumable. After a pass
// that started nothing, it persists the post-reservation profile
// (times/frees snapshot), the per-job reservation records, and how many
// queued jobs the pass accounted for, keyed by the profile's build
// stamp. The records cover the walked prefix; the jobs behind it up to
// checked were cut because none of them fit now (see lastFit). The next
// pass resumes the walk at the first unwalked queue position instead of
// re-deriving every reservation, and tests only the jobs from checked
// on — typically just-submitted ones at the tail — when it can prove
// the recorded walk would replay bit-identically:
//
//   - the profile base is a cache hit (same Stamp(), unmutated): the
//     running set, free count, and window set are unchanged and no base
//     breakpoint has fallen due;
//   - no recorded reservation has fallen due (now < minStart): every
//     EarliestFit in the prefix re-answers identically over the aged
//     profile, because a larger `after` only tightens the initial-fit
//     condition and the scan past the first too-full segment is
//     identical — and the sentinels only harden (FitsAt and fits are
//     monotone false-ward as now advances over a fixed profile);
//   - the cut jobs still cannot start: every snapshot breakpoint lies
//     after now, so a job that failed FitsAt at commit still overlaps
//     the segment that failed it, and the walk only removes capacity;
//   - the checked queue is a prefix of the current queue (unchanged
//     queueGen — the owning scheduler bumps it on every removal — plus
//     the QueueEpoch length check). A context without the stamp gives no
//     such proof, so the ledger never commits through it.
//
// A pass that starts a job commits nothing: the start bumps the
// context's run epoch, so the next build re-stamps anyway and the walk
// re-derives from scratch. That also means a committed snapshot never
// contains a started job's Take — only base content (every breakpoint
// > now while the stamp holds) and reservation carves (>= minStart >
// now), so restoring it under a later now preserves the breakpoint
// ordering invariant.
type resvLedger struct {
	// ok is the committed-and-valid flag; any doubt clears it.
	ok bool
	// stamp is the profile build stamp the snapshot is keyed by.
	stamp uint64
	// mut mirrors the profile's mutated flag at commit, restored with
	// the snapshot so downstream stamp+mutated memos see the same state
	// a from-scratch pass would have left.
	mut bool
	// minStart is the earliest recorded reservation start; the ledger
	// self-invalidates once now reaches it.
	minStart int64
	// entries are the walked jobs, in queue (arrival) order.
	entries []ledgerEntry
	// checked is the queue length at commit: positions from
	// len(entries) up to checked were cut, not walked.
	checked int
	// times/frees snapshot the post-reservation profile.
	times []int64
	frees []int
	// queueGen mirrors the owning scheduler's removal counter.
	queueGen uint64
	// subEpoch records the context's QueueEpoch stamp at commit.
	subEpoch uint64
}

// beginPass resets the ledger for a from-scratch walk. The pass records
// entries as it goes and commits at the end (or poisons the ledger if
// it started anything).
func (l *resvLedger) beginPass() {
	l.ok = false
	l.entries = l.entries[:0]
	l.checked = 0
	l.minStart = maxFuture
}

// add records one walked job's outcome.
func (l *resvLedger) add(j *core.Job, est int64, start int64) {
	l.entries = append(l.entries, ledgerEntry{id: j.ID, est: est, size: j.Size, start: start})
	if start >= 0 && start < l.minStart {
		l.minStart = start
	}
}

// commit persists the post-pass profile and stamps, with queued, the
// queue length, as the checked frontier. Call only after a pass that
// started nothing (the caller checks its removal counter). Through a
// context without a QueueEpoch stamp it leaves the ledger invalid.
func (l *resvLedger) commit(ctx Context, p *Profile, queueGen uint64, queued int) {
	qe, stamped := ctx.(QueueEpoch)
	if !stamped {
		l.ok = false
		return
	}
	l.times = append(l.times[:0], p.times...)
	l.frees = append(l.frees[:0], p.frees...)
	l.stamp = p.Stamp()
	l.mut = p.Mutated()
	l.queueGen = queueGen
	l.checked = queued
	l.subEpoch = qe.SubmitEpoch()
	l.ok = true
}

// resumable reports whether the recorded walk is provably a replay
// prefix of the pass about to run over queued jobs. p must be the
// profile the caller just built for this pass.
func (l *resvLedger) resumable(ctx Context, p *Profile, now int64, queued int, queueGen uint64) bool {
	if !l.ok || l.stamp != p.Stamp() || p.Mutated() ||
		l.queueGen != queueGen || now >= l.minStart || queued < l.checked {
		return false
	}
	// Every dispatch appended one job to the tail and the unchanged
	// queueGen says none were removed, so the prefix is intact iff
	// deliveries since commit account exactly for the length growth.
	qe, stamped := ctx.(QueueEpoch)
	return stamped && qe.SubmitEpoch()-l.subEpoch == uint64(queued-l.checked)
}

// restore overwrites p with the committed snapshot, re-anchored at now.
// Breakpoint ordering holds because every snapshot breakpoint is > now
// while the ledger is resumable (see the type comment).
func (l *resvLedger) restore(p *Profile, now int64) {
	p.times = append(p.times[:0], l.times...)
	p.frees = append(p.frees[:0], l.frees...)
	p.times[0] = now
	p.mutated = l.mut
}

// verifyResume is the debugchecks dual-run: before a resumed walk, it
// re-executes the recorded prefix from scratch against a fresh profile
// and panics on the first divergence — wrong job, wrong inputs, a
// reservation that would land elsewhere, a swept job that would now
// backfill, a cut job that would now fit, or a restored snapshot that
// differs from the replayed one. reserve is the reservation depth the
// recording pass walked with, the scheduler's Reserve (ReserveAll for
// conservative backfilling).
//
// The call sits behind debugchecks.Enabled at every call site, so
// release builds carry no trace of it.
func (l *resvLedger) verifyResume(ctx Context, windows bool, queue []*core.Job, reserve int, now int64) {
	if !debugchecks.Enabled {
		return
	}
	shadow := &Profile{}
	if windows {
		BuildProfileInto(shadow, ctx)
	} else {
		BuildRunningProfileInto(shadow, ctx)
	}
	for i, e := range l.entries {
		if i >= len(queue) || queue[i].ID != e.id {
			panic(fmt.Sprintf("sched: ledger dual-run: entry %d records job %d, queue disagrees", i, e.id))
		}
		j := queue[i]
		est := ctx.Estimate(j)
		if est != e.est || j.Size != e.size {
			panic(fmt.Sprintf("sched: ledger dual-run: job %d inputs changed (est %d->%d, size %d->%d)",
				e.id, e.est, est, e.size, j.Size))
		}
		if i < reserve {
			start := shadow.EarliestFit(now, est, j.Size)
			if start != e.start {
				panic(fmt.Sprintf("sched: ledger dual-run: job %d reservation diverged (recorded %d, from-scratch %d)",
					e.id, e.start, start))
			}
			if start == now {
				panic(fmt.Sprintf("sched: ledger dual-run: job %d would start now on a from-scratch pass", e.id))
			}
			if start >= 0 {
				shadow.Take(start, start+est, j.Size)
			}
			continue
		}
		if e.start != ledgerSwept {
			panic(fmt.Sprintf("sched: ledger dual-run: job %d beyond depth %d records start %d, want swept",
				e.id, reserve, e.start))
		}
		if shadow.FitsAt(now, est, j.Size) {
			panic(fmt.Sprintf("sched: ledger dual-run: swept job %d would backfill on a from-scratch pass", e.id))
		}
	}
	for _, j := range queue[len(l.entries):l.checked] {
		if shadow.FitsAt(now, ctx.Estimate(j), j.Size) {
			panic(fmt.Sprintf("sched: ledger dual-run: cut job %d fits now on a from-scratch pass", j.ID))
		}
	}
	// The replayed prefix must land exactly on the snapshot the resumed
	// walk restores (snapshot index 0 is the commit-time now, re-anchored
	// by restore, so it is exempt).
	if len(shadow.times) != len(l.times) {
		panic(fmt.Sprintf("sched: ledger dual-run: snapshot has %d segments, from-scratch replay %d",
			len(l.times), len(shadow.times)))
	}
	for i := range shadow.times {
		if i > 0 && shadow.times[i] != l.times[i] {
			panic(fmt.Sprintf("sched: ledger dual-run: snapshot time[%d]=%d, from-scratch replay %d",
				i, l.times[i], shadow.times[i]))
		}
		if shadow.frees[i] != l.frees[i] {
			panic(fmt.Sprintf("sched: ledger dual-run: snapshot free[%d]=%d, from-scratch replay %d",
				i, l.frees[i], shadow.frees[i]))
		}
	}
}
