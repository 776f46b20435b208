package core

import "parsched/internal/swf"

// JobStream is a pull-based job source: the streaming counterpart of
// Workload.Jobs. Next returns jobs in non-decreasing submit order with
// IDs assigned from 1, exactly as a materialized workload would hold
// them; it returns (nil, nil) when the stream is exhausted. Streams are
// single-use and not safe for concurrent use.
type JobStream interface {
	Next() (*Job, error)
}

// SliceStream adapts a job slice (a materialized workload's Jobs) to
// the JobStream interface. The jobs are handed out as-is, not cloned —
// wrap a private copy when the consumer may mutate them.
type SliceStream struct {
	jobs []*Job
	i    int
}

// NewSliceStream returns a stream over jobs.
func NewSliceStream(jobs []*Job) *SliceStream { return &SliceStream{jobs: jobs} }

// Next implements JobStream.
func (s *SliceStream) Next() (*Job, error) {
	if s.i >= len(s.jobs) {
		return nil, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, nil
}

// JobFromRecord converts one clean summary record into the operational
// job form, the per-record kernel shared by FromSWF and the streaming
// trace pipeline. The record must already be clean: summary status, a
// known runtime, and a usable processor count (swf.Clean guarantees
// all three).
func JobFromRecord(r swf.Record) *Job {
	j := new(Job)
	JobFromRecordInto(j, r)
	return j
}

// JobFromRecordInto is JobFromRecord writing into caller-owned storage:
// every field of *j is overwritten, so slab allocators can hand out
// jobs without a heap allocation each.
func JobFromRecordInto(j *Job, r swf.Record) {
	size := r.Procs
	if size <= 0 {
		size = r.ReqProcs
	}
	*j = Job{
		ID:            r.JobID,
		Submit:        r.Submit,
		Size:          int(size),
		Runtime:       r.RunTime,
		AvgCPU:        r.AvgCPU,
		MemPerProc:    r.UsedMem,
		ReqMemPerProc: r.ReqMem,
		User:          r.User,
		Group:         r.Group,
		App:           r.App,
		Queue:         r.Queue,
		Partition:     r.Partition,
		Killed:        r.Status == swf.StatusKilled,
	}
	if r.ReqTime > 0 {
		j.Estimate = r.ReqTime
	}
	if r.PrecedingJob > 0 {
		j.PrecedingJob = r.PrecedingJob
		if r.ThinkTime >= 0 {
			j.ThinkTime = r.ThinkTime
		}
	}
}
