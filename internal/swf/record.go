// Package swf implements version 2 of the Standard Workload Format
// proposed in Chapin et al., "Benchmarks and Standards for the Evaluation
// of Parallel Job Schedulers" (JSSPP/IPPS 1999), the format adopted by
// the Parallel Workloads Archive.
//
// A standard workload file is an ASCII file with one line per job. Each
// line is a list of space-separated integers; missing values are -1 and
// all other values are non-negative. Lines beginning with a semicolon
// are comments; the file starts with fixed-format header comments
// (";Label: Value") describing the workload globally.
//
// The package provides the record and header types, a reader and writer,
// a strict consistency validator ("every datum must abide to strict
// consistency rules"), a cleaner that reduces a raw log to the job-level
// summary view used for workload studies, and a converter from raw
// accounting logs with string identities into the anonymized integer
// form the standard requires.
package swf

import (
	"fmt"
	"strconv"
	"strings"
)

// Status is the completion code of a record (field 11).
type Status int64

// Completion codes defined by the standard. Jobs that were checkpointed
// and swapped out appear as several lines: one whole-job summary line
// with code Killed or Completed, then one line per partial execution
// with code Partial ("to be continued"), the last of which carries
// PartialLastOK or PartialLastKilled. Workload studies must use only
// summary lines; studies of the logged system itself use only partial
// lines.
const (
	StatusUnknown           Status = -1 // meaningless, e.g. for models
	StatusKilled            Status = 0  // job was killed
	StatusCompleted         Status = 1  // job completed normally
	StatusPartial           Status = 2  // partial execution, to be continued
	StatusPartialLastOK     Status = 3  // last partial execution, completed
	StatusPartialLastKilled Status = 4  // last partial execution, killed
)

// Valid reports whether s is one of the defined completion codes.
func (s Status) Valid() bool {
	return s >= StatusUnknown && s <= StatusPartialLastKilled
}

// IsSummary reports whether a record with this status is a whole-job
// summary line (the view used for workload studies).
func (s Status) IsSummary() bool {
	return s == StatusUnknown || s == StatusKilled || s == StatusCompleted
}

func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusKilled:
		return "killed"
	case StatusCompleted:
		return "completed"
	case StatusPartial:
		return "partial"
	case StatusPartialLastOK:
		return "partial-last-completed"
	case StatusPartialLastKilled:
		return "partial-last-killed"
	default:
		return fmt.Sprintf("Status(%d)", int64(s))
	}
}

// Missing marks an unknown value in any field.
const Missing int64 = -1

// Record is one line of a standard workload file: the 18 fields of the
// version 2 format, in file order. All times are integer seconds, all
// memory figures are kilobytes per processor.
type Record struct {
	// JobID is field 1, a counter starting from 1. The unique job ID is
	// the line number in the file; partial-execution lines repeat the ID
	// of their job.
	JobID int64
	// Submit is field 2, seconds since the start of the log. The
	// earliest time the log refers to is zero; lines are sorted by
	// ascending submit time.
	Submit int64
	// Wait is field 3, seconds between submittal and start. Only
	// meaningful for real logs, not models.
	Wait int64
	// RunTime is field 4, wall-clock seconds between start and end.
	RunTime int64
	// Procs is field 5, the number of allocated processors.
	Procs int64
	// AvgCPU is field 6, average CPU seconds (user+system) used per
	// allocated processor; may be smaller than RunTime.
	AvgCPU int64
	// UsedMem is field 7, average used memory per processor in KB.
	UsedMem int64
	// ReqProcs is field 8, the requested number of processors.
	ReqProcs int64
	// ReqTime is field 9, the requested runtime (or average CPU time
	// per processor; which one is stated in a header comment).
	ReqTime int64
	// ReqMem is field 10, requested memory per processor in KB.
	ReqMem int64
	// Status is field 11, the completion code.
	Status Status
	// User is field 12, a natural number from 1 to the number of users.
	User int64
	// Group is field 13, a natural number from 1 to the number of groups.
	Group int64
	// App is field 14, the executable (application) number, from 1 to
	// the number of different applications.
	App int64
	// Queue is field 15, from 1 to the number of queues; by convention
	// interactive jobs are queue 0.
	Queue int64
	// Partition is field 16, from 1 to the number of partitions.
	Partition int64
	// PrecedingJob is field 17: the number of a previous job that must
	// terminate before this one can start. Together with ThinkTime it
	// encodes user feedback (Section 2.2 of the paper).
	PrecedingJob int64
	// ThinkTime is field 18: seconds between the termination of the
	// preceding job and the submittal of this one.
	ThinkTime int64
}

// NumFields is the number of data fields per line in version 2.
const NumFields = 18

// fields returns the record as an ordered array, the single source of
// truth for serialization order.
func (r *Record) fields() [NumFields]int64 {
	return [NumFields]int64{
		r.JobID, r.Submit, r.Wait, r.RunTime, r.Procs, r.AvgCPU,
		r.UsedMem, r.ReqProcs, r.ReqTime, r.ReqMem, int64(r.Status),
		r.User, r.Group, r.App, r.Queue, r.Partition,
		r.PrecedingJob, r.ThinkTime,
	}
}

// setField assigns field i (0-based, file order).
func (r *Record) setField(i int, v int64) {
	switch i {
	case 0:
		r.JobID = v
	case 1:
		r.Submit = v
	case 2:
		r.Wait = v
	case 3:
		r.RunTime = v
	case 4:
		r.Procs = v
	case 5:
		r.AvgCPU = v
	case 6:
		r.UsedMem = v
	case 7:
		r.ReqProcs = v
	case 8:
		r.ReqTime = v
	case 9:
		r.ReqMem = v
	case 10:
		r.Status = Status(v)
	case 11:
		r.User = v
	case 12:
		r.Group = v
	case 13:
		r.App = v
	case 14:
		r.Queue = v
	case 15:
		r.Partition = v
	case 16:
		r.PrecedingJob = v
	case 17:
		r.ThinkTime = v
	}
}

// ParseRecord parses a single data line. It requires exactly 18 integer
// fields separated by whitespace.
func ParseRecord(line string) (Record, error) { return parseRecord(line) }

// parseRecord is the field kernel behind ParseRecord and Scanner: one
// pass over the line that splits on ASCII whitespace and parses each
// field as a base-10 int64 in place, allocating nothing on success. It
// accepts and rejects exactly what strings.Fields + strconv.ParseInt
// do — an optional sign, overflow past the int64 limits rejected — and
// reports the same errors, the field-count check first. A line holding
// any byte >= 0x80 is handed to parseRecordUnicode, since Unicode
// whitespace such as U+00A0 also separates fields there.
func parseRecord[T string | []byte](line T) (Record, error) {
	var v [NumFields]int64
	n := 0    // fields seen
	bad := -1 // first unparsable field among the first NumFields
	var badFrom, badTo int
	for i := 0; ; {
		for i < len(line) && isASCIISpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		from := i
		neg := false
		if c := line[i]; c == '+' || c == '-' {
			neg = c == '-'
			i++
		}
		digits := i
		var u uint64 // magnitude; exact up to 19 significant digits
		ok := true
		for ; i < len(line); i++ {
			c := line[i]
			if d := c - '0'; d <= 9 {
				u = u*10 + uint64(d)
				continue
			}
			if isASCIISpace(c) {
				break
			}
			if c >= 0x80 {
				return parseRecordUnicode(string(line))
			}
			ok = false
		}
		if n < NumFields && bad < 0 {
			if i-digits > 18 {
				// Only a long token can overflow. Past 19 significant digits
				// it must; up to 19, u is exact and the range check decides.
				z := digits
				for z < i && line[z] == '0' {
					z++
				}
				ok = ok && i-z <= 19
			}
			if ok && i > digits && (u < 1<<63 || neg && u == 1<<63) {
				v[n] = int64(u)
				if neg {
					v[n] = -v[n]
				}
			} else {
				bad, badFrom, badTo = n, from, i
			}
		}
		n++
	}
	if n != NumFields {
		return Record{}, fmt.Errorf("swf: record has %d fields, want %d", n, NumFields) //schedlint:allow allocfree error path: a malformed record aborts the scan
	}
	if bad >= 0 {
		return Record{}, fmt.Errorf("swf: field %d %q: not an integer", bad+1, string(line[badFrom:badTo])) //schedlint:allow allocfree error path: a malformed record aborts the scan
	}
	// Filling an array and building the record once keeps setField's
	// switch out of the scan loop, which measurably slows it.
	return Record{
		JobID: v[0], Submit: v[1], Wait: v[2], RunTime: v[3], Procs: v[4],
		AvgCPU: v[5], UsedMem: v[6], ReqProcs: v[7], ReqTime: v[8], ReqMem: v[9],
		Status: Status(v[10]), User: v[11], Group: v[12], App: v[13],
		Queue: v[14], Partition: v[15], PrecedingJob: v[16], ThinkTime: v[17],
	}, nil
}

// isASCIISpace reports the bytes strings.Fields treats as space below
// 0x80: '\t', '\n', '\v', '\f', '\r' and ' '.
func isASCIISpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// parseRecordUnicode is the strings.Fields + strconv.ParseInt parse,
// kept for lines with non-ASCII bytes, whose whitespace is Unicode's.
func parseRecordUnicode(line string) (Record, error) {
	var r Record
	fields := strings.Fields(line)
	if len(fields) != NumFields {
		return r, fmt.Errorf("swf: record has %d fields, want %d", len(fields), NumFields) //schedlint:allow allocfree error path: a malformed record aborts the scan
	}
	for i, f := range fields {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return r, fmt.Errorf("swf: field %d %q: not an integer", i+1, f) //schedlint:allow allocfree error path: a malformed record aborts the scan
		}
		r.setField(i, v)
	}
	return r, nil
}

// String renders the record as a standard data line.
func (r Record) String() string {
	var b strings.Builder
	r.appendTo(&b)
	return b.String()
}

func (r *Record) appendTo(b *strings.Builder) {
	for i, v := range r.fields() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.FormatInt(v, 10))
	}
}

// End returns the completion time of the record (Submit+Wait+RunTime),
// or Missing if any component is unknown.
func (r Record) End() int64 {
	if r.Submit < 0 || r.Wait < 0 || r.RunTime < 0 {
		return Missing
	}
	return r.Submit + r.Wait + r.RunTime
}

// Start returns the start time (Submit+Wait), or Missing if unknown.
func (r Record) Start() int64 {
	if r.Submit < 0 || r.Wait < 0 {
		return Missing
	}
	return r.Submit + r.Wait
}

// Interactive reports whether the record uses the queue-0 convention for
// interactive jobs.
func (r Record) Interactive() bool { return r.Queue == 0 }
