package trace

// Streaming trace replay: a StreamSource answers the same questions a
// materialized Source does (machine size, job count, offered load,
// clean report) from one O(1)-memory statistics pass, then hands out
// core.JobStream readers that pull cleaned jobs off the file on demand.
// Combined with sim.RunStream this replays million-job archive logs
// without ever holding the workload in memory.
//
// The job sequence a reader yields is byte-identical to
// Source.Workload's Jobs for the same file (the property tests in
// stream_test.go pin this): both funnel every record through
// swf.cleanOne and core.JobFromRecord, and streamability guarantees the
// file order already is the cleaned order.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parsched/internal/core"
	"parsched/internal/swf"
)

// StreamSource is the pull-based view of one SWF log on disk. It is
// immutable after OpenStream and safe for concurrent use; each Stream
// call opens its own reader.
type StreamSource struct {
	// Name identifies the trace in reports (header Computer field, or
	// the file's base name when the header does not state one).
	Name string
	// Path is the file the source reads from.
	Path string
	// Stats is the outcome of the statistics pass.
	Stats *swf.StreamStats

	maxNodes int
}

// OpenStream runs the statistics pass over the log at path. It never
// materializes the log; check Streamable before calling Stream — a
// non-streamable log (records out of order, or feedback references
// that need the full ID map to remap) must fall back to Open.
func OpenStream(path string) (*StreamSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	stats, err := swf.ScanStats(f)
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	name := stats.Header.Computer
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	src := &StreamSource{Name: name, Path: path, Stats: stats}
	// Same machine-size rule as FromLog: the header's claim, widened to
	// the widest replayable job so every job fits.
	src.maxNodes = int(stats.Header.MaxNodes)
	if int(stats.MaxJobSize) > src.maxNodes {
		src.maxNodes = int(stats.MaxJobSize)
	}
	return src, nil
}

// Streamable reports whether Stream reproduces the materialized
// pipeline for this log.
func (s *StreamSource) Streamable() bool { return s.Stats.Streamable }

// MaxNodes is the machine size the trace targets.
func (s *StreamSource) MaxNodes() int { return s.maxNodes }

// JobCount is the number of replayable jobs in the log.
func (s *StreamSource) JobCount() int { return s.Stats.Jobs }

// OfferedLoad is the offered load of the trace as recorded, computed
// the same way core.Workload.OfferedLoad computes it.
func (s *StreamSource) OfferedLoad() float64 {
	span := s.Stats.LastEnd - s.Stats.FirstSubmit
	if span <= 0 || s.maxNodes == 0 {
		return 0
	}
	return float64(s.Stats.TotalArea) / (float64(span) * float64(s.maxNodes))
}

// Stream opens a reader over the first limit replayable jobs (0 = all).
// The caller owns the reader and must Close it. Only valid when
// Streamable reports true.
func (s *StreamSource) Stream(limit int) (*JobReader, error) {
	if !s.Stats.Streamable {
		return nil, fmt.Errorf("trace %s: log is not streamable; use trace.Open", s.Name)
	}
	f, err := os.Open(s.Path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return &JobReader{
		f:     f,
		cs:    swf.NewCleanStream(f, s.Stats),
		limit: limit,
	}, nil
}

// JobReader pulls cleaned jobs off an open trace file one at a time. It
// implements core.JobStream and io.Closer.
type JobReader struct {
	f     *os.File
	cs    *swf.CleanStream
	limit int
	n     int
	prev  int64
	// slab hands out jobs in blocks of jobSlab, so a million-job replay
	// performs thousands of job allocations, not millions. A block stays
	// reachable only while one of its jobs is in flight.
	slab []core.Job
}

// jobSlab is the number of jobs JobReader allocates at a time.
const jobSlab = 256

// Next implements core.JobStream: jobs with IDs 1, 2, ... in
// non-decreasing submit order, (nil, nil) at end of trace.
func (r *JobReader) Next() (*core.Job, error) {
	if r.limit > 0 && r.n >= r.limit {
		return nil, nil
	}
	if !r.cs.Scan() {
		if err := r.cs.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	rec := r.cs.Record()
	if rec.Submit < r.prev {
		// The file changed (or was mis-scanned) between the statistics
		// pass and the replay; refuse to feed an invalid arrival order
		// into the simulator.
		return nil, fmt.Errorf("trace: job %d: submit %d before predecessor's %d; file not streamable", //schedlint:allow allocfree error path: a failed read aborts the replay
			rec.JobID, rec.Submit, r.prev)
	}
	r.prev = rec.Submit
	r.n++
	if len(r.slab) == 0 {
		r.slab = make([]core.Job, jobSlab) //schedlint:allow allocfree slab refill: one allocation per 256 jobs
	}
	j := &r.slab[0]
	r.slab = r.slab[1:]
	core.JobFromRecordInto(j, rec)
	return j, nil
}

// Close releases the underlying file.
func (r *JobReader) Close() error { return r.f.Close() }

// CleanSummary renders what the statistics pass found, the streaming
// analogue of Source.CleanSummary.
func (s *StreamSource) CleanSummary() string {
	r := s.Stats.Report
	return fmt.Sprintf("%d records in, %d replayable: dropped %d partial-execution, %d no-runtime, %d no-procs, %d no-submit; clamped %d CPU fields; renumbered %d job IDs; shifted submittals by %ds; streamable=%v",
		r.Input, s.Stats.Jobs, r.DroppedPartials, r.DroppedNoRuntime,
		r.DroppedNoProcs, s.Stats.DroppedNoSubmit, r.ClampedCPU, r.Renumbered,
		r.ShiftedBy, s.Stats.Streamable)
}
