package sched

import (
	"strconv"

	"parsched/internal/core"
)

// Moldable adapts moldable jobs for any machine scheduler: when a
// moldable job arrives and cannot start at its requested size, the
// adapter considers smaller power-of-two sizes (down to MinSize) and
// fixes the job at the largest size that starts immediately, provided
// the resulting runtime inflation stays within MaxStretch. This is the
// machine-side half of the "machine schedulers and application
// schedulers may cooperate" convergence the paper anticipates (Section
// 1.2), with the speedup model standing in for the application
// scheduler's knowledge. Built from specs like "easy(mold)" or
// "fcfs(mold, moldmax=2)"; the decorator composes with every family.
type Moldable struct {
	// Inner is the decorated scheduler.
	Inner Scheduler
	// MaxStretch bounds the molded runtime relative to the
	// requested-size runtime; <= 0 means the classic tolerance of 4.
	MaxStretch float64
}

// NewMoldable wraps inner with the moldable-job adapter.
func NewMoldable(inner Scheduler, maxStretch float64) *Moldable {
	return &Moldable{Inner: inner, MaxStretch: maxStretch}
}

// NewMoldableEASY returns moldable-adapted EASY backfilling (the
// legacy "easy+mold" scheduler). Moldable is the shared mold
// decorator, not a family: easy registers the alias that builds this
// configuration.
func NewMoldableEASY() *Moldable { return NewMoldable(NewEASY(), 0) }

// Name implements Scheduler. The legacy configuration — EASY at the
// classic tolerance — keeps its legacy name "easy+mold"; every other
// configuration names itself by its canonical spec ("sjf(mold)",
// "easy(mold, reserve=2)"), derived by re-parsing the inner
// scheduler's name so the label always feeds back into Parse.
//
//schedlint:coldpath reporting: result labeling, once per run
func (m *Moldable) Name() string {
	inner := m.Inner.Name()
	classicStretch := m.MaxStretch <= 0 || m.MaxStretch == 4
	if inner == "easy" && classicStretch {
		return "easy+mold"
	}
	sp, err := Parse(inner)
	if err != nil {
		// An inner name outside the grammar (a custom scheduler):
		// fall back to the legacy suffix.
		return inner + "+mold"
	}
	if sp.Params == nil {
		sp.Params = map[string]string{}
	}
	sp.Params["mold"] = "true"
	if !classicStretch {
		sp.Params["moldmax"] = strconv.FormatFloat(m.MaxStretch, 'g', -1, 64)
	}
	return sp.String()
}

// Queued implements QueueReporter when the inner scheduler does.
func (m *Moldable) Queued() []*core.Job {
	if qr, ok := m.Inner.(QueueReporter); ok {
		return qr.Queued()
	}
	return nil
}

// OnSubmit implements Scheduler.
func (m *Moldable) OnSubmit(ctx Context, j *core.Job) {
	if j.Class == core.Moldable && j.Speedup != nil {
		if size, ok := m.adaptSize(ctx, j); ok && size != j.Size {
			// Molding happens once, at start: fix the size and scale
			// the runtime before the job enters the queue; the job is
			// rigid from here on (the definition of moldable).
			j.Runtime = j.RuntimeOn(size)
			if j.Estimate > 0 {
				// Scale the estimate by the same factor, conservatively
				// rounded up.
				j.Estimate = scaleEstimate(j, size)
			}
			j.Size = size
		}
	}
	m.Inner.OnSubmit(ctx, j)
}

// OnFinish implements Scheduler.
func (m *Moldable) OnFinish(ctx Context, j *core.Job) { m.Inner.OnFinish(ctx, j) }

// OnChange implements Scheduler.
func (m *Moldable) OnChange(ctx Context) { m.Inner.OnChange(ctx) }

// adaptSize picks the size to start j at: if the requested size is free
// right now, keep it. Otherwise try successively smaller powers of two
// (>= MinSize): pick the largest that can start immediately and whose
// runtime inflation is tolerable (runtime at the smaller size no more
// than MaxStretch times the requested-size runtime).
func (m *Moldable) adaptSize(ctx Context, j *core.Job) (int, bool) {
	if ctx.CanStart(j, j.Size) {
		return j.Size, true
	}
	stretch := m.MaxStretch
	if stretch <= 0 {
		stretch = 4
	}
	minSize := j.MinSize
	if minSize < 1 {
		minSize = 1
	}
	baseRT := j.RuntimeOn(j.Size)
	for size := prevPow2(j.Size); size >= minSize; size /= 2 {
		if !ctx.CanStart(j, size) {
			continue
		}
		if float64(j.RuntimeOn(size)) <= stretch*float64(baseRT) {
			return size, true
		}
		break // even smaller sizes only get slower
	}
	return j.Size, false
}

// scaleEstimate scales the user estimate proportionally to the runtime
// change caused by molding, never below the new runtime.
func scaleEstimate(j *core.Job, newSize int) int64 {
	newRT := j.RuntimeOn(newSize)
	if j.Runtime <= 0 {
		return newRT
	}
	est := j.Estimate * newRT / j.Runtime
	if est < newRT {
		est = newRT
	}
	return est
}

// prevPow2 returns the largest power of two strictly less than n (or 1).
func prevPow2(n int) int {
	p := 1
	for p*2 < n {
		p *= 2
	}
	return p
}
