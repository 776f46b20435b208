package experiments

// Streaming: Execute runs every faithful replay of a streamable trace
// file through the pull-based pipeline (trace.StreamSource →
// sim.RunStream) rather than materializing the log. Both paths replay
// through the same sim kernel, and the streamed job sequence is
// byte-identical to the materialized one (see the property tests in
// internal/workload/trace), so the choice changes memory, never
// results: it keys only on whether the run has the shape streaming
// serves.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"parsched/internal/core"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/workload/trace"
)

// streamSource opens the spec's stream source when the run can stream:
// a faithful replay of a streamable log held in a regular file.
// Streaming reads the file twice (statistics, then replay), so a FIFO
// or device keeps the materialized path.
func (rs RunSpec) streamSource() (*trace.StreamSource, bool) {
	if rs.Source.Kind != sourceTrace || !rs.faithfulReplay() {
		return nil, false
	}
	fi, err := os.Stat(rs.Source.Arg)
	if err != nil || !fi.Mode().IsRegular() {
		return nil, false
	}
	src, err := cachedStreamSource(rs.Source.Arg)
	if err != nil || !src.Streamable() {
		// Unreadable or non-streamable logs fall back to the
		// materialized path, which reports errors properly.
		return nil, false
	}
	return src, true
}

// faithfulReplay reports whether the spec asks for the faithful replay
// streaming serves: recorded load (no rescaling), variant 0 (no gap
// resampling), open loop (no feedback).
func (rs RunSpec) faithfulReplay() bool {
	return rs.Rep == 0 && !rs.Sim.Feedback && !slices.ContainsFunc(rs.Loads, func(l float64) bool { return l != 0 })
}

// CleanSummary reads the spec's trace the way Execute will and renders
// what cleaning did to it, for CLIs that must surface trace mutilation:
// the statistics pass of a log Execute streams, or the cleaned log
// otherwise. Both are cached, so a FIFO is still read only once.
func (rs RunSpec) CleanSummary() (string, error) {
	if src, ok := rs.streamSource(); ok {
		return "scanned " + src.Name + ": " + src.CleanSummary(), nil
	}
	src, err := trace.Cached(rs.Source.Arg)
	if err != nil {
		return "", err
	}
	return "cleaned " + src.Name + ": " + src.CleanSummary(), nil
}

// streamCache memoizes the statistics pass per absolute path, the
// streaming analogue of trace.Cached (and with the same contract:
// unbounded, never invalidated, assumes logs that do not change under
// a running process).
var streamCache sync.Map // abs path → *trace.StreamSource

func cachedStreamSource(path string) (*trace.StreamSource, error) {
	key := path
	if abs, err := filepath.Abs(path); err == nil {
		key = abs
	}
	if v, ok := streamCache.Load(key); ok {
		return v.(*trace.StreamSource), nil
	}
	src, err := trace.OpenStream(path)
	if err != nil {
		return nil, err
	}
	streamCache.Store(key, src)
	return src, nil
}

// streamed is a faithful replay pulled from a trace file (its first
// jobs records, all when 0) through sim.RunStream.
type streamed struct {
	src  *trace.StreamSource
	jobs int
}

func (r streamed) label() (string, int) { return r.src.Name, r.src.MaxNodes() }

func (r streamed) run(s sched.Scheduler, opts sim.Options) (WorkloadInfo, error) {
	jr, err := r.src.Stream(r.jobs)
	if err != nil {
		return WorkloadInfo{}, err
	}
	// The counting wrapper recovers WorkloadInfo (job count, offered
	// load over the replayed prefix) from the jobs that actually flow
	// past, since no workload object exists to ask.
	cs := &countingStream{js: jr}
	_, err = sim.RunStream(r.src.Name, r.src.MaxNodes(), cs, s, opts)
	if cerr := jr.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("trace %s: %w", r.src.Path, cerr)
	}
	if err != nil {
		return WorkloadInfo{}, err
	}
	return WorkloadInfo{
		Name: r.src.Name, Jobs: cs.jobs, Nodes: r.src.MaxNodes(),
		OfferedLoad: cs.offeredLoad(r.src.MaxNodes()),
	}, nil
}

// countingStream passes jobs through while accumulating the aggregate
// figures WorkloadInfo reports, mirroring core.Workload.TotalArea/Span.
type countingStream struct {
	js    core.JobStream
	jobs  int
	area  int64
	first int64
	last  int64
}

func (c *countingStream) Next() (*core.Job, error) {
	j, err := c.js.Next()
	if j != nil {
		if c.jobs == 0 {
			c.first = j.Submit
		}
		c.jobs++
		c.area += int64(j.Size) * j.Runtime
		if end := j.Submit + j.Runtime; end > c.last {
			c.last = end
		}
	}
	return j, err
}

func (c *countingStream) offeredLoad(nodes int) float64 {
	span := c.last - c.first
	if span <= 0 || nodes == 0 {
		return 0
	}
	return float64(c.area) / (float64(span) * float64(nodes))
}
