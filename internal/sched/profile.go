package sched

import "sort"

// Profile is a piecewise-constant availability profile: free processor
// count as a function of future time. Backfilling schedulers build one
// from the running jobs' expected completions (plus outage and
// reservation windows) and query it for the earliest hole that fits a
// job. This is the core data structure of conservative backfilling.
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

	// Window-delta cache: cw snapshots the window set winT/winV were
	// built from, valid while now < cwUntil (the earliest time any
	// window's ongoing/future classification changes). Window sets
	// change on announcements and expiries — thousands of scheduling
	// passes apart — so the sort above almost always amortizes to an
	// O(windows) equality check.
	cw      []Window
	cwUntil int64
	cwValid bool
	// cwOuts is how many leading cw entries came from Outages() (the
	// rest are Reservations()): spliceWindows diffs each section against
	// its successor independently, since the concatenation is not
	// Start-ordered across the seam.
	cwOuts int
	// cwEpoch mirrors the context's WindowEpoch stamp when it offers
	// one; equal stamps replace the element-wise cw comparison (and the
	// window-set reads) entirely.
	cwEpoch uint64
	// insBuf is spliceWindows' scratch for the inserted-window diff,
	// kept on the profile so a splice allocates nothing in steady state.
	insBuf []Window

	// mutated tracks whether times/frees were written since the last
	// BuildProfileInto (schedulers mirror the starts they make with
	// Take). An unmutated profile is still the snapshot below, so a
	// cache-hit rebuild is just re-stamping times[0].
	mutated bool
	// buildStamp counts full (non-cache-hit) builds. Schedulers use it
	// to key derived results — equal stamps plus an unmutated profile
	// mean every query would answer as it did last pass.
	buildStamp uint64
	// growStamp advances only on builds that may INCREASE capacity at
	// some t >= now: full merges (unknown delta) and finish absorptions
	// (capacity returns early). Shrink-only rebuilds — start absorption,
	// base aging, window splices — leave it alone, so a scheduler
	// holding a query result that is monotone under capacity loss (the
	// head's earliest fit can only move later) can resume from it across
	// those stamps instead of recomputing from scratch.
	growStamp uint64

	// Built-profile snapshot: baseT/baseF hold the pristine merge
	// result, baseRun/baseFree the running set and free count it was
	// built from. While those inputs are unchanged (most passes in a
	// congested run start nothing, so they are) and no breakpoint has
	// fallen due, a rebuild is a memcpy restore instead of a re-merge —
	// the scratch profile itself gets mutated by Take during the pass,
	// so the snapshot is what makes reuse possible at all.
	baseT    []int64
	baseF    []int
	baseRun  []RunningJob
	baseFree int
	// baseRunEpoch mirrors the context's RunEpoch stamp when it offers
	// one; equal stamps replace the baseRun comparison (and the
	// Running() read) entirely. baseEpochOK distinguishes which scheme
	// stamped the current snapshot.
	baseRunEpoch uint64
	baseEpochOK  bool

	// mode records which build arm produced the current snapshot
	// (windows-aware or running-only), so a scratch profile handed to
	// the other arm rebuilds instead of reusing a snapshot that was
	// merged from different inputs. Schedulers never switch arms, so in
	// practice this only guards tests and future composition.
	mode buildMode

	// winS holds the arrival sequence of each scratch window delta, the
	// tiebreak that keeps the batch sort stable at equal delta times
	// (matching the old insertion-sort apply order exactly).
	winS []int32

	// pm caches the prefix minimum of frees (pm[i] = min(frees[0..i])),
	// turning the from-the-front FitsAt scan — the backfill sweep's
	// per-candidate cost on window-heavy profiles — into one binary
	// search: procs fit over [times[0], e) iff pm[segmentAt(e-1)] >=
	// procs. Rebuilt lazily after any frees mutation; it survives
	// cache-hit restamps, so an unchanged base pays the O(n) build once
	// across passes.
	pm      []int
	pmValid bool
}

// buildMode distinguishes the two profile build arms.
type buildMode uint8

const (
	modeNone    buildMode = iota
	modeWindows           // running releases + outage/reservation windows
	modeRunning           // running releases only (classic backfilling)
)

// NewProfile creates a profile that is flat at free processors from
// time start onward.
func NewProfile(start int64, free int) *Profile {
	return &Profile{times: []int64{start}, frees: []int{free}}
}

// Reset re-initializes p to a flat profile of free processors from
// start onward, reusing its backing arrays. Callers that assemble a
// profile by hand (tests, one-off queries) Reset it instead of
// allocating; Reset also voids the build-arm snapshot, since whatever
// Release/Take sequence follows is not something buildProfile can vouch
// for on a later cache-hit restore.
func (p *Profile) Reset(start int64, free int) *Profile {
	p.times = append(p.times[:0], start)
	p.frees = append(p.frees[:0], free)
	p.mode = modeNone
	p.pmValid = false
	return p
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
// — this sits under every split/FreeAt/EarliestFit on the per-event
// path, where sort.Search's closure calls are measurable.
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

// split ensures a breakpoint exists at t and returns its index.
func (p *Profile) split(t int64) int {
	i := p.segmentAt(t)
	if p.times[i] == t {
		return i
	}
	// Insert after i.
	p.times = append(p.times, 0)
	p.frees = append(p.frees, 0)
	copy(p.times[i+2:], p.times[i+1:])
	copy(p.frees[i+2:], p.frees[i+1:])
	p.times[i+1] = t
	p.frees[i+1] = p.frees[i]
	return i + 1
}

// Take subtracts procs free processors over [start, end). Negative free
// values are allowed transiently (they simply mean "no hole here").
func (p *Profile) Take(start, end int64, procs int) {
	if end <= start || procs == 0 {
		return
	}
	if start < p.times[0] {
		start = p.times[0]
	}
	if end <= p.times[0] {
		return
	}
	p.mutated = true
	p.pmValid = false
	si := p.split(start)
	ei := p.split(end)
	for i := si; i < ei; i++ {
		p.frees[i] -= procs
	}
}

// TakeStarted is Take for a job the scheduler has just started via
// ctx.Start: it applies the capacity subtraction to the scratch profile
// AND absorbs it into the built-base snapshot, so the next pass's build
// is a cache hit instead of a full re-merge — in a congested run the
// start-driven half of all rebuilds disappears.
//
// Absorption is exact: the merge emits one breakpoint per distinct
// delta time unconditionally (it never coalesces equal-frees entries),
// and split() inserts at most one breakpoint at the job's end if none
// exists, so the absorbed arrays are element-identical to what a
// from-scratch merge over the grown running set would produce — the
// property the debugchecks dual-run and the resume ledger compare
// element-wise. The machine's free count dropped by exactly procs (the
// start claimed that many nodes) and the context's run epoch already
// advanced (ctx.Start inserted the running record), so the snapshot
// stamps are re-anchored to the post-start state. The build stamp
// advances: this is a new base, and every stamp-keyed memo must miss.
//
// Falls back to plain Take — next pass re-merges — when the scratch no
// longer mirrors the base (reservation carves this pass), the base is
// not epoch-stamped, or the span is degenerate (an estimate-zero job
// still joins the running set, which absorption cannot express).
func (p *Profile) TakeStarted(ctx Context, start, end int64, procs int) {
	re, hasEpoch := ctx.(RunEpoch)
	if !hasEpoch || p.mutated || !p.baseEpochOK || len(p.baseT) == 0 ||
		procs <= 0 || end <= start || start != p.times[0] {
		p.Take(start, end, procs)
		return
	}
	p.pmValid = false
	si := p.split(start)
	ei := p.split(end)
	for i := si; i < ei; i++ {
		p.frees[i] -= procs
	}
	p.baseT = append(p.baseT[:0], p.times...)
	p.baseF = append(p.baseF[:0], p.frees...)
	p.baseFree -= procs
	p.baseRunEpoch = re.RunningEpoch()
	p.buildStamp++
}

// AbsorbFinish folds a clean job completion into the built-base
// snapshot, so the pass that follows a finish — half of all scheduling
// passes in a draining run — rebuilds by cache-hit restore instead of a
// full re-merge. The finished job's processors are free from now on:
// every base segment before its release breakpoint gains size, and the
// breakpoint itself disappears unless another delta (a running job's
// expected end, a window edge) shares the instant — the merge emits one
// entry per distinct delta time and never coalesces equal-frees
// neighbours, so this surgery is element-identical to a from-scratch
// merge over the shrunk running set. Absorption declines (and the next
// build re-merges honestly) whenever exactness cannot be proven
// locally: an un-stamped base, a fallen-due breakpoint, an overdue
// running job (its clamp could alias any breakpoint), machine drift
// beyond this job's own release, or a release instant this base never
// recorded.
func (p *Profile) AbsorbFinish(ctx Context, expEnd int64, size int) {
	re, hasEpoch := ctx.(RunEpoch)
	if !hasEpoch || !p.baseEpochOK || len(p.baseT) == 0 || size <= 0 {
		return
	}
	now := ctx.Now()
	if expEnd <= now || (len(p.baseT) > 1 && p.baseT[1] <= now) {
		return
	}
	if ctx.FreeProcs() != p.baseFree+size {
		return // nodes moved beyond this job's release: rebuild honestly
	}
	i := sort.Search(len(p.baseT), func(k int) bool { return p.baseT[k] >= expEnd })
	if i >= len(p.baseT) || p.baseT[i] != expEnd {
		return
	}
	running := ctx.Running()
	if len(running) > 0 && running[0].ExpEnd <= now {
		return // an overdue clamp may alias any breakpoint: rebuild honestly
	}
	shared := false
	ri := sort.Search(len(running), func(k int) bool { return running[k].ExpEnd >= expEnd })
	if ri < len(running) && running[ri].ExpEnd == expEnd {
		shared = true
	}
	if !shared && len(p.winT) > 0 {
		wi := sort.Search(len(p.winT), func(k int) bool { return p.winT[k] >= expEnd })
		if wi < len(p.winT) && p.winT[wi] == expEnd {
			shared = true
		}
	}
	for k := 0; k < i; k++ {
		p.baseF[k] += size
	}
	if !shared {
		copy(p.baseT[i:], p.baseT[i+1:])
		copy(p.baseF[i:], p.baseF[i+1:])
		p.baseT = p.baseT[:len(p.baseT)-1]
		p.baseF = p.baseF[:len(p.baseF)-1]
	}
	p.baseFree += size
	p.baseRunEpoch = re.RunningEpoch()
	p.buildStamp++
	p.growStamp++
	// The scratch arrays still show the pre-finish profile; the next
	// build's cache hit restores them from the absorbed base.
	p.mutated = true
	p.pmValid = false
}

// advanceBase ages the built-base snapshot forward to now, popping the
// breakpoints that have fallen due, when the result is provably the
// profile a from-scratch merge would emit. The caller has established
// that the window set (by WindowEpoch stamp) and the running set (by
// RunEpoch stamp) are both unchanged since the snapshot was merged, so
// every breakpoint past now — one per distinct remaining delta time,
// never coalesced — and every suffix free count (free(now) plus the
// same deltas) is already exact; the only new information is the clock
// and the machine's free count. The free count is the proof obligation:
// it must equal what the snapshot predicted for now (the profile
// already modeled a reservation claim's capacity as a window, so the
// claim only realizes the prediction). Any drift the snapshot did not
// predict — nodes failing mid-segment, an overdue job about to be
// clamped — declines, and the caller re-merges honestly.
func (p *Profile) advanceBase(ctx Context, now int64, free int) bool {
	running := ctx.Running()
	if len(running) > 0 && running[0].ExpEnd <= now {
		return false // an overdue clamp is a breakpoint the base never held
	}
	idx := 0
	for idx+1 < len(p.baseT) && p.baseT[idx+1] <= now {
		idx++
	}
	if p.baseF[idx] != free {
		return false // the machine moved in a way the snapshot did not predict
	}
	if idx > 0 {
		n := len(p.baseT) - idx
		copy(p.baseT[1:n], p.baseT[idx+1:])
		copy(p.baseF[1:n], p.baseF[idx+1:])
		p.baseT = p.baseT[:n]
		p.baseF = p.baseF[:n]
	}
	p.baseT[0] = now
	p.baseF[0] = free
	p.baseFree = free
	// Age the window deltas the same way, so a later merge over this
	// cache sees only future edges, and re-derive the next
	// classification boundary: every remaining delta time is a future
	// window's Start or some window's End, and a future window's End is
	// dominated by its own Start, so the earliest delta IS the earliest
	// boundary.
	wk := 0
	for wk < len(p.winT) && p.winT[wk] <= now {
		wk++
	}
	if wk > 0 {
		copy(p.winT, p.winT[wk:])
		copy(p.winV, p.winV[wk:])
		p.winT = p.winT[:len(p.winT)-wk]
		p.winV = p.winV[:len(p.winV)-wk]
	}
	if len(p.winT) > 0 {
		p.cwUntil = p.winT[0]
	} else {
		p.cwUntil = maxFuture
	}
	return true
}

// spliceWindows absorbs a window-set change into the aged snapshot when
// the diff against the cached set is exactly: windows that expired (End
// <= now — their deltas have fallen due, so aging the base past now
// already removes every trace of them) plus windows that surfaced
// wholly in the future (an announcement or a planning-horizon crossing;
// Start > now). A surfaced window's effect on a merged profile is
// precisely a Take over its span — split() adds its two breakpoints if
// absent, the subtraction lowers every segment between, and the merge
// would have emitted exactly one breakpoint per distinct delta time —
// so carving it into the base is element-identical to the full re-merge
// (the same lemma TakeStarted rests on). Any other shape of change — an
// ongoing window appearing, a window mutating in place, a non-expired
// window vanishing — declines, and the caller re-merges honestly.
//
// Splices only remove capacity at t >= now, so growStamp is NOT
// advanced: query results that are monotone under capacity loss may be
// resumed across a splice.
func (p *Profile) spliceWindows(ctx Context, now int64, free int, outs, resvs []Window) bool {
	if p.cwOuts > len(p.cw) {
		return false // snapshot predates section tracking
	}
	ins := p.insBuf[:0]
	ok := false
	if ins, ok = diffWindowSection(p.cw[:p.cwOuts], outs, now, ins); !ok {
		p.insBuf = ins
		return false
	}
	if ins, ok = diffWindowSection(p.cw[p.cwOuts:], resvs, now, ins); !ok {
		p.insBuf = ins
		return false
	}
	p.insBuf = ins
	if !p.advanceBase(ctx, now, free) {
		return false
	}
	for _, w := range ins {
		si := p.baseSplit(w.Start)
		ei := p.baseSplit(w.End)
		for i := si; i < ei; i++ {
			p.baseF[i] -= w.Procs
		}
		p.insertDelta(w.Start, -w.Procs)
		p.insertDelta(w.End, w.Procs)
	}
	if len(p.winT) > 0 {
		p.cwUntil = p.winT[0]
	} else {
		p.cwUntil = maxFuture
	}
	p.cw = append(p.cw[:0], outs...) //schedlint:allow allocfree amortized doubling of the reused window snapshot, not a per-splice allocation
	p.cw = append(p.cw, resvs...)    //schedlint:allow allocfree amortized doubling of the reused window snapshot, not a per-splice allocation
	p.cwOuts = len(outs)
	return true
}

// diffWindowSection walks one window section (outages or reservations)
// against its cached predecessor and collects the surfaced windows. The
// greedy two-pointer is sound because the only way a window leaves the
// visible set is by expiring (End <= now), and an expired window can
// never equal a strictly-future insertion — so on a mismatch, dropping
// an expired cached entry is always the right move, and anything else
// unexplained means the diff is not splice-shaped. Surfaced windows
// must be strictly future with positive extent and non-negative size:
// Start > now keeps both deltas past the aged base head, End > Start
// keeps the carve's breakpoint order (a reversed pair would need the
// batch sort), and Procs >= 0 keeps the splice shrink-only.
func diffWindowSection(old, cur []Window, now int64, ins []Window) ([]Window, bool) {
	i, k := 0, 0
	for i < len(old) && k < len(cur) {
		if old[i] == cur[k] {
			i++
			k++
			continue
		}
		if old[i].End <= now {
			i++
			continue
		}
		w := cur[k]
		if now < w.Start && w.Start < w.End && w.Procs >= 0 {
			ins = append(ins, w) //schedlint:allow allocfree amortized doubling of the reused splice scratch, not a per-splice allocation
			k++
			continue
		}
		return ins, false
	}
	for ; i < len(old); i++ {
		if old[i].End > now {
			return ins, false
		}
	}
	for ; k < len(cur); k++ {
		w := cur[k]
		if !(now < w.Start && w.Start < w.End && w.Procs >= 0) {
			return ins, false
		}
		ins = append(ins, w) //schedlint:allow allocfree amortized doubling of the reused splice scratch, not a per-splice allocation
	}
	return ins, true
}

// baseSplit is split() for the snapshot arrays: it ensures a breakpoint
// exists at t (which must be > baseT[0]) and returns its index.
func (p *Profile) baseSplit(t int64) int {
	i := sort.Search(len(p.baseT), func(k int) bool { return p.baseT[k] > t }) - 1
	if p.baseT[i] == t {
		return i
	}
	p.baseT = append(p.baseT, 0) //schedlint:allow allocfree amortized doubling of the reused snapshot arrays, not a per-splice allocation
	p.baseF = append(p.baseF, 0) //schedlint:allow allocfree amortized doubling of the reused snapshot arrays, not a per-splice allocation
	copy(p.baseT[i+2:], p.baseT[i+1:])
	copy(p.baseF[i+2:], p.baseF[i+1:])
	p.baseT[i+1] = t
	p.baseF[i+1] = p.baseF[i]
	return i + 1
}

// insertDelta places one window edge into the sorted scratch delta
// buffers. Placement among equal times is free: the merge sums every
// delta at an instant into a single breakpoint, so only the multiset
// per time matters.
func (p *Profile) insertDelta(t int64, v int) {
	i := sort.Search(len(p.winT), func(k int) bool { return p.winT[k] > t })
	p.winT = append(p.winT, 0) //schedlint:allow allocfree amortized doubling of the reused delta buffers, not a per-splice allocation
	p.winV = append(p.winV, 0) //schedlint:allow allocfree amortized doubling of the reused delta buffers, not a per-splice allocation
	copy(p.winT[i+1:], p.winT[i:])
	copy(p.winV[i+1:], p.winV[i:])
	p.winT[i] = t
	p.winV[i] = v
}

// Release adds procs free processors from time `from` onward (a running
// job's expected completion, or nodes returning after an outage).
func (p *Profile) Release(from int64, procs int) {
	p.mutated = true
	p.pmValid = false
	p.growStamp++
	if from < p.times[0] {
		from = p.times[0]
	}
	i := p.split(from)
	for k := i; k < len(p.frees); k++ {
		p.frees[k] += procs
	}
}

// FreeAt returns the free processor count at time t.
func (p *Profile) FreeAt(t int64) int {
	if t < p.times[0] {
		t = p.times[0]
	}
	return p.frees[p.segmentAt(t)]
}

// NextCapacityRise returns the first breakpoint after the profile's
// start at which the free count rises above the preceding segment's, or
// maxFuture when capacity never rises again. Up to that horizon the
// free count is non-increasing segment to segment, so any "blocked"
// verdict (a failed FitsAt or CanStart) recorded at the profile's start
// stays false as now advances — the guard the swept-queue memo uses to
// outlive individual build stamps.
func (p *Profile) NextCapacityRise() int64 {
	for i := 1; i < len(p.frees); i++ {
		if p.frees[i] > p.frees[i-1] {
			return p.times[i]
		}
	}
	return maxFuture
}

// EarliestFit returns the earliest time >= after at which procs
// processors are continuously free for dur seconds.
//
// Single forward sweep over the segments: the candidate start is
// `after` until a too-full segment is met, then the breakpoint just
// past it — the optimal start is always one of those, so one O(n) scan
// replaces the old try-every-breakpoint O(n²) search with identical
// results. It returns -1 only if the request exceeds the machine (the
// infinite tail segment cannot fit it).
func (p *Profile) EarliestFit(after int64, dur int64, procs int) int64 {
	if after < p.times[0] {
		after = p.times[0]
	}
	if dur < 1 {
		dur = 1
	}
	n := len(p.times)
	start := after
	for i := p.segmentAt(start); i < n; i++ {
		if p.frees[i] < procs {
			if i+1 >= n {
				return -1 // the window would run into a too-full tail
			}
			start = p.times[i+1]
			continue
		}
		if i+1 >= n || p.times[i+1] >= start+dur {
			// Free through the end of the window (the last segment
			// extends forever).
			return start
		}
	}
	return -1
}

// FitsAt reports whether procs processors are continuously free for
// dur seconds starting exactly at start — the EarliestFit(start, ...)
// == start question answered without the full scan: a too-full segment
// fails immediately instead of sending EarliestFit hunting through the
// rest of the profile for a later hole nobody will use.
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
	si := p.segmentAt(s)
	scanTo := si + fitsScanLimit
	for i := si; i < len(p.times); i++ {
		segStart := p.times[i]
		if segStart >= e {
			break
		}
		var segEnd int64
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		} else {
			segEnd = e // last segment extends forever
		}
		if segEnd <= s {
			continue
		}
		if p.frees[i] < procs {
			return false
		}
		if i >= scanTo && s <= p.times[0] {
			// Long window over a start-anchored query (every canStartNow
			// and backfill-sweep check is): the undecided remainder is a
			// prefix-minimum lookup — min(frees[0..j]) for the last j
			// with times[j] < e — so finish in one binary search instead
			// of walking a window-heavy profile segment by segment. The
			// short scan above keeps the common case (a too-full segment
			// near now) at O(1), rejection order unchanged.
			if !p.pmValid {
				p.buildPrefixMin()
			}
			return p.pm[p.segmentAt(e-1)] >= procs
		}
	}
	return true
}

// fitsScanLimit is how many segments fits walks before escaping to the
// prefix-minimum cache: long enough that near-now rejections never pay
// for the cache, short enough that window-heavy sweeps do not walk
// hundreds of segments per candidate.
const fitsScanLimit = 8

// buildPrefixMin fills pm with the running minimum of frees.
func (p *Profile) buildPrefixMin() {
	if cap(p.pm) < len(p.frees) {
		c := 2 * cap(p.pm)
		if c < len(p.frees) {
			c = len(p.frees)
		}
		p.pm = make([]int, c) //schedlint:allow allocfree amortized doubling of the reused prefix-min cache, not a per-query allocation
	}
	p.pm = p.pm[:len(p.frees)]
	m := p.frees[0]
	for i, f := range p.frees {
		if f < m {
			m = f
		}
		p.pm[i] = m
	}
	p.pmValid = true
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
// reservation window edges (batch-sorted into scratch). Appending
// cumulative breakpoints replaces the old per-window split() inserts,
// whose memmoves dominated windows-on runs; the resulting times/frees
// arrays are element-identical to what the Release/Take sequence
// produced.
func BuildProfileInto(p *Profile, ctx Context) *Profile {
	return buildProfile(p, ctx, true)
}

// BuildRunningProfileInto builds the windowless profile — current free
// capacity plus running-job releases only — through the same sorted-
// merge kernel and snapshot machinery as BuildProfileInto. It replaces
// the classic per-running-job Release loop, whose split() memmoves made
// windowless builds quadratic in the running-set size, and gives the
// windowless schedulers the build stamps and cache-hit restores the
// windowed arm already had. The output is element-identical to the
// Release sequence: Running() is ExpEnd-ordered and overdueClamp is
// monotone, so the cumulative release breakpoints arrive pre-sorted
// with strictly increasing times and the merge appends exactly the
// breakpoints Release would have split in one by one.
func BuildRunningProfileInto(p *Profile, ctx Context) *Profile {
	return buildProfile(p, ctx, false)
}

func buildProfile(p *Profile, ctx Context, windows bool) *Profile {
	now := ctx.Now()
	free := ctx.FreeProcs()

	mode := modeRunning
	if windows {
		mode = modeWindows
	}
	modeOK := p.mode == mode

	// Window-set freshness: by stamp when the context offers one (no
	// window reads at all on a hit), by element comparison otherwise.
	// The running-only arm carries no window deltas at all: its scratch
	// buffers are empty and stay empty, so winsOK is trivially true once
	// the arm matches.
	var outs, resvs []Window
	winsOK := true
	winsSameSet := false
	hasWinEpoch := false
	if windows {
		if we, ok := ctx.(WindowEpoch); ok {
			hasWinEpoch = true
			ep := we.WindowsEpoch()
			winsSameSet = modeOK && p.cwValid && p.cwEpoch == ep
			winsOK = winsSameSet && now < p.cwUntil
			if !winsOK {
				outs, resvs = ctx.Outages(), ctx.Reservations()
				p.cwEpoch = ep
			}
		} else {
			outs, resvs = ctx.Outages(), ctx.Reservations()
			winsOK = modeOK && p.windowCacheValid(now, outs, resvs)
		}
	} else if !modeOK {
		// Entering running-only mode: drop whatever window deltas a
		// previous windowed build left in the scratch buffers.
		p.winT, p.winV, p.winS = p.winT[:0], p.winV[:0], p.winS[:0]
		p.cw = p.cw[:0]
		p.cwValid = false
	}

	// Base freshness: same build arm, same free count, no snapshot
	// breakpoint fallen due (breakpoints are strictly increasing, so
	// baseT[1] bounds them all and also catches overdue-job clamps going
	// stale — the clamp is always the earliest breakpoint), and an
	// unchanged running set — by stamp when the context offers one (no
	// Running() read at all on a hit), by element comparison otherwise.
	baseOK := modeOK && len(p.baseT) > 0 && p.baseFree == free &&
		!(len(p.baseT) > 1 && p.baseT[1] <= now)
	var running []RunningJob
	haveRunning := false
	runSame := false
	re, hasRunEpoch := ctx.(RunEpoch)
	if hasRunEpoch {
		ep := re.RunningEpoch()
		runSame = p.baseEpochOK && p.baseRunEpoch == ep
		baseOK = baseOK && runSame
		p.baseRunEpoch = ep
	} else {
		running = ctx.Running()
		haveRunning = true
		baseOK = baseOK && !p.baseEpochOK && p.runningUnchanged(running)
	}

	if winsOK && baseOK {
		if p.mutated {
			p.times = append(p.times[:0], p.baseT...)
			p.frees = append(p.frees[:0], p.baseF...)
			p.mutated = false
			p.pmValid = false
		}
		p.times[0] = now
		return p
	}

	// Same window set, same running set, but time moved past a base
	// breakpoint or the free count shifted — a reservation claim or an
	// outage taking nodes at a window edge, typically. Try aging the
	// snapshot forward instead of re-merging: the suffix past now is
	// already element-identical to what a from-scratch merge would emit
	// (see advanceBase).
	if hasWinEpoch && hasRunEpoch && winsSameSet && runSame && modeOK &&
		len(p.baseT) > 0 && p.advanceBase(ctx, now, free) {
		p.times = append(p.times[:0], p.baseT...)
		p.frees = append(p.frees[:0], p.baseF...)
		p.mutated = false
		p.pmValid = false
		p.buildStamp++
		return p
	}

	// The window set itself changed under an unchanged running set — a
	// window expired, or a future one surfaced (announcement or horizon
	// crossing). When the diff is exactly that, splice it into the aged
	// snapshot instead of re-merging everything (see spliceWindows).
	if hasWinEpoch && hasRunEpoch && !winsSameSet && runSame && modeOK &&
		p.cwValid && len(p.baseT) > 0 && p.spliceWindows(ctx, now, free, outs, resvs) {
		p.times = append(p.times[:0], p.baseT...)
		p.frees = append(p.frees[:0], p.baseF...)
		p.mutated = false
		p.pmValid = false
		p.buildStamp++
		return p
	}

	if !haveRunning {
		running = ctx.Running()
	}
	p.Reset(now, free)
	if !winsOK {
		p.rebuildWindowDeltas(now, outs, resvs)
	}

	// Two-pointer merge with cached stream heads, so each release is
	// clamped exactly once. The output is at most one breakpoint per
	// input delta, so the arrays are pre-sized once and written by index
	// — the per-element append bookkeeping is measurable at this call
	// rate.
	need := 1 + len(running) + len(p.winT)
	if cap(p.times) < need {
		p.times = append(p.times[:cap(p.times)], make([]int64, need-cap(p.times))...) //schedlint:allow allocfree amortized doubling of the reused profile arrays, not a per-pass allocation
		p.frees = append(p.frees[:cap(p.frees)], make([]int, need-cap(p.frees))...)   //schedlint:allow allocfree amortized doubling of the reused profile arrays, not a per-pass allocation
	}
	times, frees := p.times[:need], p.frees[:need]
	n := 1
	ri, wi := 0, 0
	rt, wt := int64(maxFuture), int64(maxFuture)
	if ri < len(running) {
		rt = overdueClamp(now, running[ri].ExpEnd)
	}
	if wi < len(p.winT) {
		wt = p.winT[wi]
	}
	cur := frees[0]
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
	p.pmValid = false

	p.baseT = append(p.baseT[:0], p.times...)
	p.baseF = append(p.baseF[:0], p.frees...)
	if hasRunEpoch {
		p.baseRun = p.baseRun[:0]
		p.baseEpochOK = true
	} else {
		p.baseRun = append(p.baseRun[:0], running...)
		p.baseEpochOK = false
	}
	p.baseFree = free
	p.mode = mode
	p.mutated = false
	p.buildStamp++
	p.growStamp++
	return p
}

// Stamp identifies the profile's current base content: it changes on
// every full rebuild and is stable across cache-hit rebuilds. Combined
// with Mutated(), it tells a scheduler whether query results cached
// from an earlier pass are still exact.
func (p *Profile) Stamp() uint64 { return p.buildStamp }

// GrowStamp identifies the last build that may have increased capacity
// at any future instant. Equal GrowStamps across passes mean every
// intervening rebuild was shrink-only (start absorptions, base aging,
// window splices), so a cached result that is monotone under capacity
// loss — the head job's earliest fit can only have moved later — may be
// resumed from rather than recomputed.
func (p *Profile) GrowStamp() uint64 { return p.growStamp }

// Mutated reports whether the profile was written (Take/Release) since
// its last build.
func (p *Profile) Mutated() bool { return p.mutated }

// runningUnchanged reports whether the given running set equals the
// snapshot's (the element-comparison fallback for contexts without a
// RunEpoch stamp).
func (p *Profile) runningUnchanged(running []RunningJob) bool {
	if len(p.baseRun) != len(running) {
		return false
	}
	for i := range running {
		if p.baseRun[i] != running[i] {
			return false
		}
	}
	return true
}

// windowCacheValid reports whether the cached winT/winV deltas still
// describe the given window set at time now: same windows, in order,
// and no window has crossed a classification boundary (a future
// window's Start, an ongoing window's End) since they were built. All
// cached delta times sit at or past those boundaries, so while the
// check holds every delta time stays strictly after now and the merge
// invariant (breakpoints > times[0]) is preserved.
func (p *Profile) windowCacheValid(now int64, outs, resvs []Window) bool {
	if !p.cwValid || now >= p.cwUntil || len(p.cw) != len(outs)+len(resvs) {
		return false
	}
	for i, w := range outs {
		if p.cw[i] != w {
			return false
		}
	}
	for i, w := range resvs {
		if p.cw[len(outs)+i] != w {
			return false
		}
	}
	return true
}

// rebuildWindowDeltas refills the scratch delta buffers from the given
// window set. An ongoing window's processors are already unavailable
// (excluded from FreeProcs or held by the reservation's allocation) and
// simply return at End; a future window subtracts capacity over its
// span. The set is recorded in the cw snapshot — the element-wise
// freshness fallback for contexts without a WindowEpoch stamp, and the
// diff baseline spliceWindows ages incrementally for contexts with one.
//
// crossing re-derives the full delta set here before the merge.
//
//schedlint:hotpath every window-epoch bump and classification-boundary
func (p *Profile) rebuildWindowDeltas(now int64, outs, resvs []Window) {
	p.cw = append(p.cw[:0], outs...) //schedlint:allow allocfree amortized doubling of the reused window snapshot, not a per-rebuild allocation
	p.cw = append(p.cw, resvs...)    //schedlint:allow allocfree amortized doubling of the reused window snapshot, not a per-rebuild allocation
	p.cwOuts = len(outs)
	p.cwUntil = maxFuture
	need := 2 * (len(outs) + len(resvs))
	if cap(p.winT) < need || cap(p.winV) < need {
		c := 2 * cap(p.winT)
		if c < need {
			c = need
		}
		p.winT = make([]int64, c) //schedlint:allow allocfree amortized doubling of the reused delta buffers, not a per-rebuild allocation
		p.winV = make([]int, c)   //schedlint:allow allocfree amortized doubling of the reused delta buffers, not a per-rebuild allocation
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
	p.winS = p.winS[:0]
	// Windows arrive roughly chronologically (outage logs and
	// reservation calendars are built in time order), so the written
	// deltas are usually already sorted; a linear scan beats paying
	// sort.Sort's indirect calls on every rebuild. The arrival-sequence
	// tiebreak (winS) is only materialized when a sort is actually
	// needed: equal times keep write order either way, which is exactly
	// the apply order the old per-edge insertion sort produced.
	for i := 1; i < n; i++ {
		if winT[i] < winT[i-1] {
			for k := 0; k < n; k++ {
				p.winS = append(p.winS, int32(k)) //schedlint:allow allocfree amortized doubling of the reused tiebreak buffer, not a per-rebuild allocation
			}
			sort.Sort((*deltaOrder)(p))
			p.winS = p.winS[:0]
			break
		}
	}
	p.cwValid = true
}

// deltaOrder views a Profile's scratch window deltas as a sort.Interface
// keyed by (time, arrival sequence). The conversion is pointer-only, so
// sorting through it allocates nothing.
type deltaOrder Profile

func (d *deltaOrder) Len() int { return len(d.winT) }

func (d *deltaOrder) Less(i, j int) bool {
	return d.winT[i] < d.winT[j] || (d.winT[i] == d.winT[j] && d.winS[i] < d.winS[j])
}

func (d *deltaOrder) Swap(i, j int) {
	d.winT[i], d.winT[j] = d.winT[j], d.winT[i]
	d.winV[i], d.winV[j] = d.winV[j], d.winV[i]
	d.winS[i], d.winS[j] = d.winS[j], d.winS[i]
}
