package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"parsched/internal/core"
	"parsched/internal/outage"
	"parsched/internal/sched"
)

// outageWorkload is the fixed 8-node workload the outage-log tests
// replay: a machine-wide job holds every node over [0, 1000), a short
// one-node job waits behind it, and a mix of sizes keeps the machine
// busy after it, so an outage anywhere in the first few thousand
// seconds meets a running job.
func outageWorkload() *core.Workload {
	return wl(8,
		[3]int64{0, 8, 1000},
		[3]int64{10, 1, 90},
		[3]int64{20, 4, 600},
		[3]int64{30, 3, 400},
		[3]int64{40, 2, 900},
		[3]int64{50, 8, 300},
		[3]int64{60, 1, 1200},
		[3]int64{70, 5, 200},
	)
}

// TestMalformedOutageLogIsAnError pins the run path's guard on outage
// records the machine cannot replay. A node outside the machine used
// to index past its state and panic; a record ending before it starts
// used to bring node 0 up at t=200 under the machine-wide job, start
// the one-node job on it, and report a utilization of 8090/8000.
func TestMalformedOutageLogIsAnError(t *testing.T) {
	w := outageWorkload()
	w.Jobs = w.Jobs[:2]
	for _, tc := range []struct{ name, log, want string }{
		{"node-past-end", "1 100 100 200 1 1 999\n", "node 999"},
		{"node-negative", "1 100 100 200 1 1 -1\n", "node -1"},
		{"end-before-start", "1 100 300 200 0 1 0\n", "before its start"},
		{"second-record", "1 100 100 200 1 1 0\n2 150 150 250 1 2 3 8\n", "node 8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, err := outage.Read(strings.NewReader(tc.log))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(w, sched.NewEASY(), Options{Outages: log})
			if err == nil {
				t.Fatalf("replay accepted the log (utilization %v)", res.Report(8).Utilization)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestOutageBeforeLogStartTakesNodeDown pins the replay of an outage
// that began before the log did: its node is down from time 0, so the
// machine-wide job waits for it, instead of starting on a node whose
// up event at t=200 used to take it from that job and start the
// one-node job there, for a utilization of 8090/8000.
func TestOutageBeforeLogStartTakesNodeDown(t *testing.T) {
	w := outageWorkload()
	w.Jobs = w.Jobs[:2]
	log := &outage.Log{Records: []outage.Record{
		{ID: 1, Announced: -10, Start: -10, End: 200, Kind: outage.CPUFailure, Nodes: []int64{0}},
	}}
	res := mustRun(t, w, sched.NewEASY(), Options{Outages: log})
	if o := outcomeByID(res, 1); o.Start != 200 || o.Restarts != 0 {
		t.Fatalf("machine-wide job: %+v, want a start at 200 once node 0 is back", o)
	}
	if u := res.Report(8).Utilization; u > 1 {
		t.Fatalf("utilization %v above 1", u)
	}
}

// FuzzOutageLog holds the outage log, an untrusted input, to three
// promises: outage.Read never panics; a log it accepts round-trips
// through Write; and replaying that log over outageWorkload returns a
// result or an error, never a panic and never a utilization above 1.
// The committed corpus in testdata/fuzz/FuzzOutageLog, which plain go
// test runs too, holds both malformed-record reproducers of
// TestMalformedOutageLogIsAnError, failures and maintenance over
// running jobs, back-to-back and zero-length outages, a node repaired
// in the same instant it failed, outages that start before the log,
// and records that parse but fail outage.Validate.
func FuzzOutageLog(f *testing.F) {
	f.Add("; machine outages\n1 500 500 600 1 1 0\n2 700 800 900 5 8 0 1 2 3 4 5 6 7\n")
	f.Fuzz(func(t *testing.T, text string) {
		log, err := outage.Read(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := outage.Write(&buf, log); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := outage.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading the written log: %v\nwritten %q\ninput %q", err, buf.String(), text)
		}
		if !reflect.DeepEqual(back, log) {
			t.Fatalf("round trip changed the log: %+v, read back %+v\ninput %q", log, back, text)
		}
		for _, s := range []sched.Scheduler{sched.NewEASY(), sched.NewConservativeWindows()} {
			res, err := Run(outageWorkload(), s, Options{Outages: log})
			if err != nil {
				continue
			}
			if u := res.Report(8).Utilization; u > 1 {
				t.Fatalf("%s: utilization %v above 1\ninput %q", s.Name(), u, text)
			}
		}
	})
}
