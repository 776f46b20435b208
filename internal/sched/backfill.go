package sched

import (
	"fmt"
	"math"

	"parsched/internal/core"
	"parsched/internal/debugchecks"
)

func init() {
	Register(Family{
		Name: "easy",
		Doc:  "EASY (aggressive) backfilling",
		Params: []Param{
			{Name: "window", Kind: BoolParam,
				Doc: "respect announced outages and accepted advance reservations"},
			{Name: "reserve", Kind: IntParam, Default: "1",
				Doc: "reservation depth: blocked queue-head jobs guaranteed not to be delayed (1 = classic EASY; a depth covering the whole queue is conservative backfilling, which cons builds)"},
		},
		Aliases: map[string]string{
			"easy+win":  "easy(window)",
			"easy+mold": "easy(mold)",
		},
		New: func(a Args) (Scheduler, error) {
			r := a.Int("reserve")
			if r < 1 {
				return nil, fmt.Errorf("reserve must be >= 1, got %d", r)
			}
			return &EASY{Windows: a.Bool("window"), Reserve: r}, nil
		},
	})
	Register(Family{
		Name: "cons",
		Doc:  "conservative backfilling (every queued job gets a reservation): easy at a reservation depth covering the whole queue",
		Params: []Param{
			{Name: "window", Kind: BoolParam,
				Doc: "respect announced outages and accepted advance reservations"},
		},
		Aliases: map[string]string{"cons+win": "cons(window)"},
		New: func(a Args) (Scheduler, error) {
			return &EASY{Windows: a.Bool("window"), Reserve: ReserveAll}, nil
		},
	})
}

// EASY is aggressive backfilling as introduced on the Argonne SP-1
// (EASY) and analyzed by Feitelson & Weil: jobs run FCFS, but when the
// head of the queue cannot start, a reservation ("shadow time") is
// computed for it from the running jobs' expected completions, and any
// later job may start immediately if it does not delay that
// reservation — either because it ends before the shadow time or
// because it fits in the processors left over at the shadow time.
//
// The paper's Section 3 singles out backfilling as the scheduler family
// that reservations for metacomputing extend ("A simple approach may be
// an extension of backfilling"): with Windows=true, announced outages
// and accepted reservations become capacity reductions in the shadow
// computation, giving the reservation-aware/outage-aware variant.
//
// Between passes EASY keeps only what the context's epoch stamps prove
// still holds: its scratch profile's snapshots, the reservation ledger
// of the walk (Reserve > 1), the swept-queue memo of classic EASY's
// backfill sweep, and each queued job's estimate. The head's shadow time
// is recomputed every pass.
type EASY struct {
	// Windows folds Outages() and Reservations() into the availability
	// profile, making the scheduler drain for known capacity holes.
	Windows bool
	// Reserve is the reservation depth: how many blocked jobs at the
	// head of the queue are guaranteed not to be delayed by backfill.
	// 0 or 1 is classic EASY (only the head is protected); ReserveAll
	// covers the whole queue, which is conservative backfilling. Built
	// from specs like "easy(reserve=2)" and, at ReserveAll, "cons".
	// Every depth above 1 runs one walk (see walk).
	Reserve int
	// DisableLedger turns off the resumable-pass reservation ledger the
	// reservation walk keeps (Reserve > 1) and the walk cut (lastFit),
	// forcing every pass to walk every queued job and re-derive every
	// reservation from scratch. Decisions are identical either way — the
	// ledger resumes the exact deterministic walk, and the cut skips only
	// jobs that cannot start — so the switch exists only as the full-walk
	// reference for the equivalence property tests and the
	// quadratic-vs-incremental ablation benchmarks.
	DisableLedger bool

	queue []*core.Job
	// estq caches ctx.Estimate per queued job, index-aligned with queue.
	// Estimates are frozen once a job is submitted (a requeued kill goes
	// back through OnSubmit), and the sweep reads one per candidate per
	// pass — an interface call worth paying once per arrival instead.
	estq []int64
	// queueBuf and estqBuf span the whole backing arrays of queue and
	// estq, whose fronts phase 1 pops; pushBack reuses that space.
	queueBuf []*core.Job
	estqBuf  []int64
	// ledger records the reservation walk for resumption; queueGen
	// counts queue removals (starts), the ledger's proof that the queue
	// it walked is still a prefix of the one it sees.
	ledger   resvLedger
	queueGen uint64
	// scratch is the per-pass working profile, reused across scheduling
	// passes so a pass costs no profile allocations.
	scratch Profile
	// Swept-queue memo: after a phase-2 sweep that started nothing, a
	// later pass over the same profile base (same stamp, no Take
	// mirrored into it — a start anywhere would have changed the running
	// set and forced a new stamp) re-rejects every job it already swept:
	// now only advances, so now+est <= shadow only gets falser; FitsAt
	// over an unchanged profile can flip true to false but never back;
	// and the machine state cannot change without a rebuild. Only jobs
	// queued behind sweepLen need evaluation.
	sweepOK    bool
	sweepStamp uint64
	sweepLen   int
}

// NewEASY returns plain EASY backfilling.
func NewEASY() *EASY { return &EASY{} }

// NewEASYWindows returns EASY that respects announced outages and
// accepted advance reservations.
func NewEASYWindows() *EASY { return &EASY{Windows: true} }

// ReserveAll is the reservation depth that covers the whole queue:
// EASY at this depth is conservative backfilling, where every queued job
// gets a reservation and a job may backfill only if it delays no
// earlier one.
const ReserveAll = math.MaxInt

// NewConservative returns conservative backfilling.
func NewConservative() *EASY { return &EASY{Reserve: ReserveAll} }

// NewConservativeWindows returns the outage/reservation-aware variant.
func NewConservativeWindows() *EASY { return &EASY{Windows: true, Reserve: ReserveAll} }

// Name implements Scheduler. Legacy configurations, conservative
// backfilling among them, keep their legacy names; parameterized ones
// name themselves by their canonical spec.
//
//schedlint:coldpath reporting: result labeling, once per run
func (e *EASY) Name() string {
	switch {
	case e.Reserve == ReserveAll && e.Windows:
		return "cons+win"
	case e.Reserve == ReserveAll:
		return "cons"
	case e.Reserve > 1 && e.Windows:
		return fmt.Sprintf("easy(reserve=%d, window)", e.Reserve)
	case e.Reserve > 1:
		return fmt.Sprintf("easy(reserve=%d)", e.Reserve)
	case e.Windows:
		return "easy+win"
	}
	return "easy"
}

// Queued implements QueueReporter.
func (e *EASY) Queued() []*core.Job { return append([]*core.Job(nil), e.queue...) }

// OnSubmit implements Scheduler.
func (e *EASY) OnSubmit(ctx Context, j *core.Job) {
	e.queue, e.queueBuf = pushBack(e.queue, e.queueBuf, j)
	e.estq, e.estqBuf = pushBack(e.estq, e.estqBuf, ctx.Estimate(j))
	e.schedule(ctx)
}

// pushBack appends v to q, where buf spans q's whole backing array and
// q is a window ending at its capacity (front pops and in-place
// removals both keep that shape). When q is full but at least half of
// buf lies free in front of it, q slides down to the start of buf
// instead of growing, so a queue that drains as fast as it fills reuses
// one array for the whole run. When q is full, starts past the front
// of buf and fills more than half of it, q moves to a new buf twice
// the old one's size: append would grow q from its own capacity, which
// the pops in front of it have shrunk, and could yield an array smaller
// than buf, so a queue that swings past half of buf again would
// allocate on every swing. A full q at the front of buf grows by
// append into a new buf. So buf grows only with the peak queue length,
// and every case is amortized O(1) per push.
func pushBack[T any](q, buf []T, v T) ([]T, []T) {
	if len(q) == cap(q) && cap(q) < cap(buf) {
		if 2*len(q) <= cap(buf) {
			q = buf[:copy(buf[:cap(buf)], q)]
		} else {
			q = append(make([]T, 0, 2*cap(buf)), q...)
		}
	}
	q = append(q, v)
	if cap(q) > cap(buf) {
		buf = q
	}
	return q, buf
}

// OnFinish implements Scheduler.
func (e *EASY) OnFinish(ctx Context, j *core.Job) { e.schedule(ctx) }

// OnChange implements Scheduler.
func (e *EASY) OnChange(ctx Context) { e.schedule(ctx) }

// profile builds the availability profile EASY consults. Without
// Windows, only running jobs count (classic EASY is oblivious to
// outages it has not been told about); both arms go through the
// sorted-merge kernel, so the windowless build gets the same snapshot
// restores and build stamps as the windowed one.
func (e *EASY) profile(ctx Context) *Profile {
	if e.Windows {
		return BuildProfileInto(&e.scratch, ctx)
	}
	return BuildRunningProfileInto(&e.scratch, ctx)
}

func (e *EASY) schedule(ctx Context) {
	now := ctx.Now()
	// One profile per scheduling pass; job starts are mirrored into it
	// with Take so it stays current without rebuilding (rebuilding per
	// candidate makes window-heavy runs quadratic).
	p := e.profile(ctx)
	if e.Reserve > 1 {
		e.walk(ctx, p, now)
		return
	}

	// Phase 1: start jobs FCFS from the head while they fit.
	for len(e.queue) > 0 {
		head := e.queue[0]
		est := e.estq[0]
		if !e.canStartNow(ctx, p, head, est) {
			break
		}
		ctx.Start(head, head.Size)
		p.TakeStarted(ctx, now, now+est, head.Size)
		e.queue = e.queue[1:]
		e.estq = e.estq[1:]
		e.queueGen++
	}
	if len(e.queue) <= 1 {
		return
	}

	// Phase 2: the head is blocked. Compute its reservation from the
	// profile, then backfill later jobs that do not delay it.
	head := e.queue[0]
	headEst := e.estq[0]
	shadow := p.EarliestFit(now, headEst, head.Size)
	if shadow < 0 {
		// The head can never fit (bigger than the machine after
		// failures); skip backfill gating against it.
		shadow = maxFuture
	}
	// Processors left over for backfill at the shadow time.
	extra := p.FreeAt(shadow) - head.Size

	i := 1
	if e.sweepOK && !p.Mutated() && e.sweepStamp == p.Stamp() && e.sweepLen <= len(e.queue) {
		i = e.sweepLen
	}
	for i < len(e.queue) {
		j := e.queue[i]
		est := e.estq[i]
		fitsBefore := now+est <= shadow
		fitsBeside := j.Size <= extra
		// The shadow gates are integer compares; test them before the
		// capacity/profile checks so candidates that could not backfill
		// anyway (the bulk of a congested queue) cost nothing. Pure
		// predicates both ways, so the conjunction order is free.
		if (fitsBefore || fitsBeside) && e.canStartNow(ctx, p, j, est) {
			ctx.Start(j, j.Size)
			p.TakeStarted(ctx, now, now+est, j.Size)
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			e.estq = append(e.estq[:i], e.estq[i+1:]...)
			e.queueGen++
			if !fitsBefore {
				extra -= j.Size
			}
			continue
		}
		i++
	}
	// Record the sweep frontier so the next pass over the same base only
	// looks at jobs that arrived after it. Starts absorbed by
	// TakeStarted leave p unmutated under a fresh stamp, and the memo
	// stays sound across them: a candidate rejected mid-pass only
	// hardens against the end-of-pass state (Take never adds capacity,
	// CanStart's free count only falls within a pass, and both FitsAt
	// and the shadow gates are monotone false-ward as now advances over
	// a fixed stamp). Only reservation carves — which walk does, this
	// path never — leave the profile genuinely mutated. The shadow gates
	// only harden if the shadow stays put, and a shadow at now does not:
	// it is a head the profile fits but CanStart refuses (memory-aware
	// placement), and a later pass over the same stamp can find its
	// shadow past a capacity window and backfill more. So such a sweep
	// records no memo.
	if e.sweepOK = !p.Mutated() && shadow > now; e.sweepOK {
		e.sweepStamp = p.Stamp()
		e.sweepLen = len(e.queue)
	}
}

// walk is the Reserve > 1 pass. It walks the queue in arrival order
// over the availability profile. A job within the reservation depth
// starts if its earliest fit is now; otherwise its future slot is carved
// into the profile as a reservation, so no later job can delay it. A job
// beyond the depth may start only where it fits under the profile
// immediately. A job's depth position is its index among the jobs still
// queued, so the jobs a pass starts take up no depth. At ReserveAll this
// is conservative backfilling, and it keeps that algorithm's guarantee:
// job i's start never trails the estimate-based promise made at its
// submittal.
//
// Unlike classic EASY, the walk runs no FCFS phase first: it starts
// exactly the head jobs such a phase would. With Windows, that phase
// tests FitsAt(now) && CanStart, which is the walk's scan(now) == now &&
// CanStart. Without, the profile holds only running jobs, so its free
// count starts at FreeProcs and only rises (every start the walk takes
// runs from now, which keeps it so), and CanStart alone implies a fit
// now.
//
// The walk stops after the last queued job that still fits now (see
// lastFit) and runs through the reservation ledger: a pass over an
// unchanged base with an intact queue prefix resumes at the first
// unwalked job instead of re-deriving every reservation; see resvLedger
// for the validity proof. When no job arrived since, the resumed walk
// cuts at once (the floor is checked) and commits the same ledger.
func (e *EASY) walk(ctx Context, p *Profile, now int64) {
	from, checked := 0, 0
	if !e.DisableLedger && e.ledger.resumable(ctx, p, now, len(e.queue), e.queueGen) {
		if debugchecks.Enabled {
			e.ledger.verifyResume(ctx, e.Windows, e.queue, e.Reserve, now)
		}
		from, checked = len(e.ledger.entries), e.ledger.checked
		e.ledger.restore(p, now)
	} else {
		e.ledger.beginPass()
	}

	gen := e.queueGen
	// The jobs that stay queued are compacted into kept, which never
	// passes qi, so the positions lastFit reads are still the queue's.
	kept, keptEst := e.queue[:from], e.estq[:from]
	last := len(e.queue) - 1
	qi := from
	for ; qi < len(e.queue); qi++ {
		if !e.DisableLedger {
			floor := max(qi, checked)
			if last = lastFit(p, now, e.queue, e.estq, last, floor); last < floor {
				if debugchecks.Enabled {
					verifyCut(ctx, p, e.queue[qi:], e.estq[qi:], e.Reserve-len(kept), now)
				}
				break
			}
		}
		j, est := e.queue[qi], e.estq[qi]
		start := ledgerSwept
		if len(kept) < e.Reserve {
			h := p.scan(now, est, j.Size)
			if h.start == now && ctx.CanStart(j, j.Size) {
				ctx.Start(j, j.Size)
				// Its processors are busy until its expected end; reflect
				// that for the jobs behind it.
				p.takeStartedHole(ctx, h, est, j.Size)
				e.queueGen++
				continue
			}
			// Reserve: later jobs must not delay this one. The carve works
			// over the segments the scan just verified. A job larger than
			// the (possibly degraded) machine is held unreserved.
			if h.start >= 0 {
				p.takeHole(h, est, j.Size)
			}
			start = h.start
		} else if ctx.CanStart(j, j.Size) && p.FitsAt(now, est, j.Size) {
			ctx.Start(j, j.Size)
			p.TakeStarted(ctx, now, now+est, j.Size)
			e.queueGen++
			continue
		}
		e.ledger.add(j, est, start)
		kept = append(kept, j)
		keptEst = append(keptEst, est)
	}
	// The cut tail stays queued in order, unreserved and unrecorded.
	e.queue = append(kept, e.queue[qi:]...)
	e.estq = append(keptEst, e.estq[qi:]...)
	// A pass that started a job commits nothing: positions shifted and
	// the running set changed, so the next build re-stamps anyway.
	if !e.DisableLedger && e.queueGen == gen {
		e.ledger.commit(ctx, p, e.queueGen, len(e.queue))
	} else {
		e.ledger.ok = false
	}
}

// canStartNow checks capacity plus, in Windows mode, that the job would
// not collide with a future capacity hole it is required to respect.
// p is the pass's working profile (already reflecting this pass's
// starts); est is the caller's ctx.Estimate(j), threaded through so the
// sweep pays one estimate lookup per candidate, not two.
func (e *EASY) canStartNow(ctx Context, p *Profile, j *core.Job, est int64) bool {
	// In Windows mode the job must fit under the profile for its whole
	// estimated duration starting now (otherwise it would collide with a
	// window). FitsAt answers exactly EarliestFit(now, ...) == now, but
	// bails at the first too-full segment instead of scanning on for a
	// later hole this check would discard anyway — and it runs before
	// the machine walk, since in a congested pass it is the commoner
	// rejection. Both predicates are pure, so the order is free.
	if e.Windows && !p.FitsAt(ctx.Now(), est, j.Size) {
		return false
	}
	return ctx.CanStart(j, j.Size)
}

// lastFit is the walk cut. A pass decides only which jobs start now,
// and a job starts only if it fits now under the pass's profile; a
// reservation for a job that cannot start only guards it against later
// backfill in the same pass. So a walk may stop once no job left to
// walk fits now. The walk only removes capacity (Take, TakeStarted), so
// a job that fails FitsAt once fails for the rest of the pass: the
// caller keeps last, the last queued position that may still fit, and
// before each step lastFit re-tests it and moves it back past jobs that
// no longer fit. That costs at most one FitsAt per queued job on top of
// the walked ones. A result below floor, the walk position or the
// ledger's checked frontier, means no job from there on can start.
func lastFit(p *Profile, now int64, queue []*core.Job, estq []int64, last, floor int) int {
	for last >= floor && !p.FitsAt(now, estq[last], queue[last].Size) {
		last--
	}
	return last
}

// verifyCut is the debugchecks dual-run for the walk cut: it finishes
// the skipped walk over the unwalked tail of the queue on a copy of p,
// reserving the first reserve jobs (the depth the walk had left) and
// offering the rest immediate backfill, and panics if any skipped job
// would start.
func verifyCut(ctx Context, p *Profile, queue []*core.Job, estq []int64, reserve int, now int64) {
	if !debugchecks.Enabled {
		return
	}
	shadow := p.clone()
	for i, j := range queue {
		est := estq[i]
		if i < reserve {
			start := shadow.EarliestFit(now, est, j.Size)
			if start == now && ctx.CanStart(j, j.Size) {
				panic(fmt.Sprintf("sched: cut dual-run: skipped job %d would start now", j.ID))
			}
			if start >= 0 {
				shadow.Take(start, start+est, j.Size)
			}
			continue
		}
		if ctx.CanStart(j, j.Size) && shadow.FitsAt(now, est, j.Size) {
			panic(fmt.Sprintf("sched: cut dual-run: skipped job %d would backfill now", j.ID))
		}
	}
}

const maxFuture = int64(1) << 60
