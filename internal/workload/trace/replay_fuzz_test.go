package trace

import (
	"fmt"
	"strings"
	"testing"

	"parsched/internal/core"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/swf"
)

// fuzzMaxNodes bounds the machine a fuzzed replay builds. FromLog
// accepts machines up to core.MaxMachine nodes
// (TestMachineBeyondBoundIsAnError covers that bound), but the
// machine's tables grow with its node count, so larger fuzzed machines
// are skipped to keep each execution small.
const fuzzMaxNodes = 4096

// hugeTimeLogs are logs with one time field near the int64 limit. Each
// once panicked the simulator or corrupted a replay: the requested time
// put the job's reservation past the profile's horizon, the runtime
// overflowed the job's end time into a negative utilization, and the
// submit time overflowed the end time into an event in the past.
var hugeTimeLogs = []struct {
	name, field, text string
}{
	{"requested-time", "estimate", `; MaxNodes: 8
; MaxProcs: 8
1 0 -1 1000 4 -1 -1 4 9223372036854775000 -1 1 1 1 -1 -1 -1 -1 -1
2 10 -1 50 8 -1 -1 8 60 -1 1 1 1 -1 -1 -1 -1 -1
3 20 -1 50 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1
4 30 -1 50 2 -1 -1 2 100 -1 1 1 1 -1 -1 -1 -1 -1
`},
	{"runtime", "runtime", `; MaxNodes: 8
; MaxProcs: 8
1 0 -1 9223372036854775000 4 -1 -1 4 1000 -1 1 1 1 -1 -1 -1 -1 -1
2 10 -1 50 8 -1 -1 8 60 -1 1 1 1 -1 -1 -1 -1 -1
3 20 -1 50 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1
4 30 -1 50 2 -1 -1 2 100 -1 1 1 1 -1 -1 -1 -1 -1
`},
	{"submit-time", "submit time", `; MaxNodes: 8
; MaxProcs: 8
1 0 -1 1000 4 -1 -1 4 1000 -1 1 1 1 -1 -1 -1 -1 -1
2 9223372036854775000 -1 1000 8 -1 -1 8 60 -1 1 1 1 -1 -1 -1 -1 -1
3 20 -1 50 4 -1 -1 4 60 -1 1 1 1 -1 -1 -1 -1 -1
4 30 -1 50 2 -1 -1 2 100 -1 1 1 1 -1 -1 -1 -1 -1
`},
}

// unvalidatedWorkload reads, cleans and converts a log without
// validating the result, so the simulator's own checks meet every
// field the log holds.
func unvalidatedWorkload(text string) (*core.Workload, error) {
	log, err := swf.Read(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	clean, _ := swf.Clean(log)
	return core.FromSWF(clean)
}

// TestHugeTimeFieldIsAnError replays each of hugeTimeLogs through the
// materialized and the streaming path under every backfilling walk and
// gang scheduling, and requires an error naming the job and the field.
func TestHugeTimeFieldIsAnError(t *testing.T) {
	specs := []string{"easy", "cons", "easy(reserve=2)", "cons(window)", "gang"}
	for _, c := range hugeTimeLogs {
		t.Run(c.name, func(t *testing.T) {
			w, err := unvalidatedWorkload(c.text)
			if err != nil {
				t.Fatal(err)
			}
			var bad *core.Job
			for _, j := range w.Jobs {
				if j.Submit > core.MaxTime || j.Runtime > core.MaxTime || j.Estimate > core.MaxTime {
					bad = j
				}
			}
			if bad == nil {
				t.Fatal("no job carries the huge field")
			}
			want := fmt.Sprintf("job %d: %s %d s exceeds", bad.ID, c.field, int64(9223372036854775000))
			for _, spec := range specs {
				for _, stream := range []bool{false, true} {
					s, err := sched.New(spec)
					if err != nil {
						t.Fatal(err)
					}
					var res *sim.Result
					if stream {
						res, err = sim.RunStream(w.Name, w.MaxNodes, core.NewSliceStream(w.Jobs), s, sim.Options{})
					} else {
						res, err = sim.Run(w, s, sim.Options{})
					}
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s (stream %v): err = %v, result %v; want an error containing %q", spec, stream, err, res != nil, want)
					}
				}
			}
		})
	}
}

// FuzzSWFReplay holds the SWF log, an untrusted input, to one promise
// end to end: read and loaded by FromLog, on the machine it infers (the
// MaxNodes header, widened to the widest job), and replayed under EASY
// and conservative backfilling, it yields a result or an error, never
// a panic, and a result accounts for every job and reports a
// utilization in [0, 1]. The inferred machine may end inside an
// allocation word or span several. The committed corpus in
// testdata/fuzz/FuzzSWFReplay, which plain go test runs too, holds the
// reproducers of TestHugeTimeFieldIsAnError and clean and dirty records
// of mini.swf.
func FuzzSWFReplay(f *testing.F) {
	f.Add("; MaxNodes: 32\n1 0 -1 10 32 -1 -1 32 900 -1 1 1 2 27 1 1 -1 -1\n2 5157 -1 52 1 -1 -1 1 900 -1 1 3 4 1 1 1 -1 -1\n")
	// A job wider than the header widens the machine to 130 nodes: two
	// whole allocation words and part of a third.
	f.Add("; MaxNodes: 70\n1 0 -1 100 65 -1 -1 65 200 -1 1 1 1 -1 -1 -1 -1 -1\n2 10 -1 50 130 -1 -1 130 60 -1 1 1 1 -1 -1 -1 -1 -1\n3 20 -1 30 6 -1 -1 6 60 -1 1 1 1 -1 -1 -1 -1 -1\n")
	f.Fuzz(func(t *testing.T, text string) {
		log, err := swf.Read(strings.NewReader(text))
		if err != nil {
			return
		}
		src, err := FromLog("fuzz", log)
		if err != nil || src.MaxNodes() > fuzzMaxNodes {
			return
		}
		w := src.Workload(Options{})
		for _, s := range []sched.Scheduler{sched.NewEASY(), sched.NewConservative()} {
			res, err := sim.Run(w, s, sim.Options{})
			if err != nil {
				continue
			}
			if got := len(res.Outcomes) + res.NeverSubmitted; got != len(w.Jobs) {
				t.Fatalf("%s: %d outcomes + %d never submitted for %d jobs\ninput %q",
					s.Name(), len(res.Outcomes), res.NeverSubmitted, len(w.Jobs), text)
			}
			if u := res.Report(w.MaxNodes).Utilization; !(u >= 0 && u <= 1) {
				t.Fatalf("%s: utilization %v outside [0, 1] on %d nodes\ninput %q", s.Name(), u, w.MaxNodes, text)
			}
		}
	})
}
