package sched

import "sort"

// Profile is a piecewise-constant availability profile: free processor
// count as a function of future time. Backfilling schedulers build one
// from the running jobs' expected completions (plus outage and
// reservation windows) and query it for the earliest hole that fits a
// job. This is the core data structure of conservative backfilling.
//
// A scheduler keeps one Profile as scratch across its passes, and each
// build reuses what the context's epoch stamps prove unchanged: the
// window deltas and the merged base. A scratch profile belongs to one
// builder, BuildProfileInto or BuildRunningProfileInto, for its whole
// life: neither records which of them filled it.
type Profile struct {
	// times[i] is the start of segment i; frees[i] is the free
	// processor count on [times[i], times[i+1]). The last segment
	// extends to infinity.
	times []int64
	frees []int

	// winT/winV are scratch buffers for BuildProfileInto's window
	// deltas, kept on the profile so a rebuild allocates nothing in
	// steady state.
	winT []int64
	winV []int

	// Window-delta cache: winT/winV describe the window set the context
	// stamped cwEpoch (WindowEpoch), valid while now < cwUntil (the
	// earliest time any window's ongoing/future classification
	// changes). Window sets change on announcements and expiries —
	// thousands of scheduling passes apart — so the delta sort almost
	// always amortizes to a stamp comparison. cwValid is set only by a
	// build through a stamped context.
	cwUntil int64
	cwValid bool
	cwEpoch uint64

	// mutated tracks whether times/frees were written since the last
	// BuildProfileInto (schedulers mirror the starts they make with
	// Take). An unmutated profile is still the snapshot below, so a
	// cache-hit rebuild is just re-stamping times[0].
	mutated bool
	// buildStamp counts full (non-cache-hit) builds. Schedulers use it
	// to key derived results — equal stamps plus an unmutated profile
	// mean every query would answer as it did last pass.
	buildStamp uint64

	// Built-profile snapshot: baseT/baseF hold the pristine merge
	// result, baseFree and baseRunEpoch the free count and the
	// context's RunEpoch stamp it was built from. While those inputs
	// are unchanged (most passes in a congested run start nothing, so
	// they are) and no breakpoint has fallen due, a rebuild is a memcpy
	// restore instead of a re-merge — the scratch profile itself gets
	// mutated by Take during the pass, so the snapshot is what makes
	// reuse possible at all. A build through a context without the
	// stamp leaves the snapshot empty.
	baseT        []int64
	baseF        []int
	baseFree     int
	baseRunEpoch uint64
}

// NewProfile creates a profile that is flat at free processors from
// time start onward.
func NewProfile(start int64, free int) *Profile {
	return &Profile{times: []int64{start}, frees: []int{free}}
}

// clone copies the profile's segments, for tests and the debugchecks
// cut dual-run (verifyCut).
func (p *Profile) clone() *Profile {
	return &Profile{
		times: append([]int64(nil), p.times...),
		frees: append([]int(nil), p.frees...),
	}
}

// segmentAt returns the index of the segment containing t (t must be >=
// p.times[0]): the last i with times[i] <= t. Hand-rolled binary search
// — this sits under every Take/FreeAt/FitsAt and fit scan on the
// per-event path, where sort.Search's closure calls are measurable.
func (p *Profile) segmentAt(t int64) int {
	// Most queries anchor at the profile start (canStartNow, backfill
	// Take at now): answer those without the search.
	if len(p.times) == 1 || t < p.times[1] {
		return 0
	}
	lo, hi := 0, len(p.times) // invariant: times[lo-1] <= t < times[hi]
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.times[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return lo - 1
}

// insert adds a breakpoint at t as index i (0 < i <= len(times), and
// times[i-1] < t < times[i]); the new segment starts with the free
// count of the segment it splits.
func (p *Profile) insert(i int, t int64) {
	p.times = append(p.times, 0)
	p.frees = append(p.frees, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.frees[i+1:], p.frees[i:])
	p.times[i] = t
	p.frees[i] = p.frees[i-1]
}

// carve subtracts procs free processors over [h.start, end), where h.si
// is the segment holding h.start and h.ei the last segment the window
// covers (times[h.ei] < end, and end <= times[h.ei+1] unless h.ei is the
// tail). It inserts the two breakpoints the window needs at indices it
// already knows, end first so the start's insertion shifts the range
// once, and subtracts over the range: no search at all.
func (p *Profile) carve(h hole, end int64, procs int) {
	si, ei := h.si, h.ei
	if ei+1 == len(p.times) || p.times[ei+1] != end {
		p.insert(ei+1, end)
	}
	if p.times[si] != h.start {
		p.insert(si+1, h.start)
		si, ei = si+1, ei+1
	}
	for i := si; i <= ei; i++ {
		p.frees[i] -= procs
	}
}

// Take subtracts procs free processors over [start, end). Negative free
// values are allowed transiently (they simply mean "no hole here"). It
// looks up the segments holding start and end-1 and hands them to
// takeHole, the carve a reservation walk runs over the hole its fit
// scan verified, so both leave element-identical profiles. An empty
// window (end <= start, or ending by the profile start) or procs == 0
// writes nothing and leaves Mutated() as it was.
func (p *Profile) Take(start, end int64, procs int) {
	start = max(start, p.times[0])
	if end <= start {
		return
	}
	p.takeHole(hole{start: start, si: p.segmentAt(start), ei: p.segmentAt(end - 1)}, end-start, procs)
}

// takeHole is Take(h.start, h.start+dur, procs) for a hole a fit scan
// for at least dur seconds returned: the scan already verified the
// segments the window covers, so the carve runs without a lookup. Like
// Take, it carves nothing for dur <= 0 (an estimate-zero job scans as a
// one-second window) or procs == 0.
func (p *Profile) takeHole(h hole, dur int64, procs int) {
	if dur <= 0 || procs == 0 {
		return
	}
	p.mutated = true
	p.carve(h, h.start+dur, procs)
}

// TakeStarted is Take for a job the scheduler has just started via
// ctx.Start: it applies the capacity subtraction to the scratch profile
// AND absorbs it into the built-base snapshot, so the next pass's build
// is a cache hit instead of a full re-merge — in a congested run the
// start-driven half of all rebuilds disappears.
//
// Absorption is exact: the merge emits one breakpoint per distinct
// delta time unconditionally (it never coalesces equal-frees entries),
// and the carve inserts at most one breakpoint, at the job's end, if
// none exists there, so the absorbed arrays are element-identical to
// what a from-scratch merge over the grown running set would produce —
// the property the debugchecks dual-run and the resume ledger compare
// element-wise. The machine's free count dropped by exactly procs (the
// start claimed that many nodes) and the context's run epoch already
// advanced (ctx.Start inserted the running record), so the snapshot
// stamps are re-anchored to the post-start state. The build stamp
// advances: this is a new base, and every stamp-keyed memo must miss.
//
// A started job holds its processors for at least one second, as a
// build holds an overdue job's (see overdueClamp), so an estimate-zero
// start is mirrored over [start, start+1). That keeps the first
// segment at FreeProcs: a fit now implies the capacity to start.
//
// Falls back to plain Take — next pass re-merges — when the scratch no
// longer mirrors the base (reservation carves this pass) or there is no
// base (the context has no RunEpoch stamp).
func (p *Profile) TakeStarted(ctx Context, start, end int64, procs int) {
	end = max(end, start+1)
	if start != p.times[0] {
		p.Take(start, end, procs)
		return
	}
	p.takeStartedHole(ctx, hole{start: start, ei: p.segmentAt(end - 1)}, end-start, procs)
}

// takeStartedHole is TakeStarted(ctx, h.start, h.start+dur, procs) for a
// hole a fit scan for max(dur, 1) seconds returned, carving over the
// segments the scan verified (see takeHole).
func (p *Profile) takeStartedHole(ctx Context, h hole, dur int64, procs int) {
	dur = max(dur, 1)
	re, hasEpoch := ctx.(RunEpoch)
	if !hasEpoch || p.mutated || len(p.baseT) == 0 ||
		procs <= 0 || h.start != p.times[0] {
		p.takeHole(h, dur, procs)
		return
	}
	p.carve(h, h.start+dur, procs)
	p.baseT = append(p.baseT[:0], p.times...)
	p.baseF = append(p.baseF[:0], p.frees...)
	p.baseFree -= procs
	p.baseRunEpoch = re.RunningEpoch()
	p.buildStamp++
}

// FreeAt returns the free processor count at time t.
func (p *Profile) FreeAt(t int64) int {
	if t < p.times[0] {
		t = p.times[0]
	}
	return p.frees[p.segmentAt(t)]
}

// A hole is a fit scan's answer: start, the earliest time at which the
// request fits (-1 if none), and the range of segments the scan
// verified — si holds start, ei is the last segment the window covers —
// so a carve over the hole (takeHole, takeStartedHole) inserts its
// breakpoints without searching for them.
type hole struct {
	start  int64
	si, ei int
}

// EarliestFit returns the earliest time >= after at which procs
// processors are continuously free for dur seconds (at least one), or
// -1 if the request exceeds the machine (the infinite tail segment
// cannot fit it). It is the start-only view of the fit scan the
// reservation walks run (scan), so EASY's shadow time, advance
// reservation admission and co-allocation all search the same way.
func (p *Profile) EarliestFit(after int64, dur int64, procs int) int64 {
	return p.scan(after, dur, procs).start
}

// scan is the fit kernel: a single forward sweep over the segments
// from the one holding after. The candidate window is [after,
// after+dur) until a too-full segment is met, then the one starting at
// the breakpoint just past it; the optimal start is always one of
// those, so one O(n) sweep finds it. The sweep carries the window's end
// rather than its start, so each step is one sign test that ends the
// sweep when the segment has room and reaches the end —
// (free−procs) | (next−end) >= 0 — plus a conditional move that slides
// the window past a too-full segment: no branch depends on which kind
// of segment comes next, and a profile alternating between them costs
// no mispredictions. A window reaching the last segment fits iff the
// tail has room. The hole's si is found by stepping back from the
// window's last segment to the one holding its start.
//
// With durations bounded far below the 2^60 s horizon, next−end cannot
// overflow.
func (p *Profile) scan(after, dur int64, procs int) hole {
	after = max(after, p.times[0])
	dur = max(dur, 1)
	i := p.segmentAt(after)
	end := after + dur
	// Step k tests segment i+k: its end is nexts[k] (times[i+k+1]), its
	// free count fs[k]; fs runs one further, to the tail. Working only
	// on these two slices keeps the loop's operands in registers and
	// lets the compiler drop its bounds checks.
	nexts := p.times[i+1:]
	fs := p.frees[i : i+len(nexts)+1]
	body := fs[:len(nexts)]
	k := 0
	for ; k < len(nexts); k++ {
		next, f := nexts[k], body[k]-procs
		if int64(f)|(next-end) >= 0 {
			break
		}
		if f < 0 {
			end = next + dur
		}
	}
	if fs[k] < procs {
		return hole{start: -1} // only the tail can end the sweep too full
	}
	// Step back from the window's last segment to the one holding its
	// start (times[i] <= after <= start stops it).
	start := end - dur
	m := k
	for m > 0 && nexts[m-1] > start {
		m--
	}
	return hole{start: start, si: i + m, ei: i + k}
}

// FitsAt reports whether procs processors are continuously free for
// dur seconds (at least one) starting exactly at start — the
// EarliestFit(start, ...) == start question answered without the full
// scan: a too-full segment fails immediately instead of sending the
// scan hunting through the rest of the profile for a later hole nobody
// will use.
func (p *Profile) FitsAt(start, dur int64, procs int) bool {
	if start < p.times[0] {
		start = p.times[0]
	}
	if dur < 1 {
		dur = 1
	}
	return p.fits(start, start+dur, procs)
}

// fits reports whether procs are free over the whole window [s, e).
func (p *Profile) fits(s, e int64, procs int) bool {
	for i := p.segmentAt(s); i < len(p.times) && p.times[i] < e; i++ {
		if p.frees[i] < procs {
			return false
		}
	}
	return true
}

// BuildProfile constructs the availability profile seen by a backfiller:
// current free capacity, plus the future releases of running jobs, minus
// known outage and reservation windows. Overdue running jobs (ExpEnd in
// the past) are treated as ending one second from now.
func BuildProfile(ctx Context) *Profile {
	return BuildProfileInto(&Profile{}, ctx)
}

// BuildProfileInto is BuildProfile writing into a caller-owned scratch
// profile (reusing its backing arrays across scheduling passes).
//
// The build is a single merge of two sorted delta streams: running-job
// releases (Running() is ordered by expected end, and overdueClamp is
// monotone, so their breakpoints arrive pre-sorted) and outage/
// reservation window edges (batch-sorted into scratch).
func BuildProfileInto(p *Profile, ctx Context) *Profile {
	return buildProfile(p, ctx, true)
}

// BuildRunningProfileInto builds the windowless profile — current free
// capacity plus running-job releases only — through the same sorted-
// merge kernel and snapshot machinery as BuildProfileInto.
func BuildRunningProfileInto(p *Profile, ctx Context) *Profile {
	return buildProfile(p, ctx, false)
}

func buildProfile(p *Profile, ctx Context, windows bool) *Profile {
	now := ctx.Now()
	free := ctx.FreeProcs()

	// Window deltas are reused while the context's WindowEpoch stamp is
	// unchanged (no window reads at all on a hit) and no window has
	// crossed a classification boundary; a context without the stamp
	// re-derives them on every build. The running-only arm never fills
	// its delta buffers.
	winsOK := true
	if windows {
		we, stamped := ctx.(WindowEpoch)
		var ep uint64
		if stamped {
			ep = we.WindowsEpoch()
		}
		winsOK = stamped && p.cwValid && p.cwEpoch == ep && now < p.cwUntil
		if !winsOK {
			p.rebuildWindowDeltas(now, ctx.Outages(), ctx.Reservations())
			p.cwValid, p.cwEpoch = stamped, ep
		}
	}

	// Base freshness: same free count, no snapshot breakpoint fallen due
	// (breakpoints are strictly increasing, so baseT[1] bounds them all
	// and also catches overdue-job clamps going stale — the clamp is
	// always the earliest breakpoint), and an unchanged RunEpoch stamp
	// (no Running() read at all on a hit). A context without the stamp
	// gets no restore.
	re, runStamped := ctx.(RunEpoch)
	var runEp uint64
	if runStamped {
		runEp = re.RunningEpoch()
	}
	if winsOK && runStamped && len(p.baseT) > 0 && p.baseRunEpoch == runEp &&
		p.baseFree == free && !(len(p.baseT) > 1 && p.baseT[1] <= now) {
		if p.mutated {
			p.times = append(p.times[:0], p.baseT...)
			p.frees = append(p.frees[:0], p.baseF...)
			p.mutated = false
		}
		p.times[0] = now
		return p
	}

	running := ctx.Running()

	// Two-pointer merge with cached stream heads, so each release is
	// clamped exactly once. The output is at most one breakpoint per
	// input delta, so the arrays are pre-sized once and written by index
	// — the per-element append bookkeeping is measurable at this call
	// rate.
	need := 1 + len(running) + len(p.winT)
	if cap(p.times) < need {
		p.times = append(p.times[:cap(p.times)], make([]int64, need-cap(p.times))...)
		p.frees = append(p.frees[:cap(p.frees)], make([]int, need-cap(p.frees))...)
	}
	times, frees := p.times[:need], p.frees[:need]
	times[0], frees[0] = now, free
	n := 1
	ri, wi := 0, 0
	rt, wt := int64(maxFuture), int64(maxFuture)
	if ri < len(running) {
		rt = overdueClamp(now, running[ri].ExpEnd)
	}
	if wi < len(p.winT) {
		wt = p.winT[wi]
	}
	cur := free
	for rt != maxFuture {
		t := rt
		if wt < t {
			t = wt
		}
		for rt == t {
			// The base profile (FreeProcs) already excludes the job's
			// processors; they come back at the expected end.
			cur += running[ri].Size
			ri++
			if ri < len(running) {
				rt = overdueClamp(now, running[ri].ExpEnd)
			} else {
				rt = maxFuture
			}
		}
		for wt == t {
			cur += p.winV[wi]
			wi++
			if wi < len(p.winT) {
				wt = p.winT[wi]
			} else {
				wt = maxFuture
			}
		}
		times[n], frees[n] = t, cur
		n++
	}
	// Running stream exhausted: every remaining window delta groups into
	// one breakpoint per distinct time, with no per-element stream-head
	// comparisons. On window-heavy profiles most deltas sit beyond the
	// last running job's end, so this tail is the bulk of the merge.
	for wi < len(p.winT) {
		t := p.winT[wi]
		for wi < len(p.winT) && p.winT[wi] == t {
			cur += p.winV[wi]
			wi++
		}
		times[n], frees[n] = t, cur
		n++
	}
	p.times, p.frees = times[:n], frees[:n]

	if runStamped {
		p.baseT = append(p.baseT[:0], p.times...)
		p.baseF = append(p.baseF[:0], p.frees...)
		p.baseFree, p.baseRunEpoch = free, runEp
	} else {
		p.baseT, p.baseF = p.baseT[:0], p.baseF[:0]
	}
	p.mutated = false
	p.buildStamp++
	return p
}

// Stamp identifies the profile's current base content: it changes on
// every full rebuild and is stable across cache-hit rebuilds. Combined
// with Mutated(), it tells a scheduler whether query results cached
// from an earlier pass are still exact.
func (p *Profile) Stamp() uint64 { return p.buildStamp }

// Mutated reports whether the profile was written (Take) since its last
// build.
func (p *Profile) Mutated() bool { return p.mutated }

// rebuildWindowDeltas refills the scratch delta buffers from the given
// window set and re-derives cwUntil. An ongoing window's processors are
// already unavailable (excluded from FreeProcs or held by the
// reservation's allocation) and simply return at End; a future window
// subtracts capacity over its span.
//
//schedlint:hotpath every window-epoch bump and classification-boundary crossing re-derives the full delta set here before the merge
func (p *Profile) rebuildWindowDeltas(now int64, outs, resvs []Window) {
	p.cwUntil = maxFuture
	need := 2 * (len(outs) + len(resvs))
	if cap(p.winT) < need || cap(p.winV) < need {
		c := 2 * cap(p.winT)
		if c < need {
			c = need
		}
		p.winT = make([]int64, c)
		p.winV = make([]int, c)
	}
	winT, winV := p.winT[:need], p.winV[:need]
	n := 0
	for s := 0; s < 2; s++ {
		wins := outs
		if s == 1 {
			wins = resvs
		}
		for _, w := range wins {
			if w.End <= now {
				continue
			}
			if w.Start <= now {
				winT[n], winV[n] = w.End, w.Procs
				n++
				if w.End < p.cwUntil {
					p.cwUntil = w.End
				}
				continue
			}
			winT[n], winV[n] = w.Start, -w.Procs
			winT[n+1], winV[n+1] = w.End, w.Procs
			n += 2
			if w.Start < p.cwUntil {
				p.cwUntil = w.Start
			}
		}
	}
	p.winT, p.winV = winT[:n], winV[:n]
	// Windows arrive roughly chronologically (outage logs and
	// reservation calendars are built in time order), so the written
	// deltas are usually already sorted; a linear scan beats paying
	// sort.Sort's indirect calls on every rebuild. The order among equal
	// times does not matter: the merge sums every delta at an instant
	// into one breakpoint.
	for i := 1; i < n; i++ {
		if winT[i] < winT[i-1] {
			sort.Sort((*deltaOrder)(p))
			break
		}
	}
}

// deltaOrder views a Profile's scratch window deltas as a sort.Interface
// keyed by time. The conversion is pointer-only, so sorting through it
// allocates nothing.
type deltaOrder Profile

func (d *deltaOrder) Len() int { return len(d.winT) }

func (d *deltaOrder) Less(i, j int) bool { return d.winT[i] < d.winT[j] }

func (d *deltaOrder) Swap(i, j int) {
	d.winT[i], d.winT[j] = d.winT[j], d.winT[i]
	d.winV[i], d.winV[j] = d.winV[j], d.winV[i]
}
