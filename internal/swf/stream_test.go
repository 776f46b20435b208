package swf

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const miniFixture = "../workload/trace/testdata/mini.swf"

// renderLog round-trips a log through the textual format so the
// streaming scanners read exactly what the materialized reader reads.
func renderLog(t *testing.T, log *Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, log); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func readFixture(t *testing.T) *Log {
	t.Helper()
	log, err := ReadFile(miniFixture)
	if err != nil {
		t.Fatalf("ReadFile(%s): %v", miniFixture, err)
	}
	return log
}

func TestScannerMatchesRead(t *testing.T) {
	raw, err := os.ReadFile(miniFixture)
	if err != nil {
		t.Fatal(err)
	}
	log, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(bytes.NewReader(raw))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("Scanner: %v", err)
	}
	if len(got) != len(log.Records) {
		t.Fatalf("Scanner yielded %d records, Read %d", len(got), len(log.Records))
	}
	for i := range got {
		if got[i] != log.Records[i] {
			t.Fatalf("record %d differs:\nscan %+v\nread %+v", i, got[i], log.Records[i])
		}
	}
	if sc.Header().Computer != log.Header.Computer || sc.Header().MaxNodes != log.Header.MaxNodes {
		t.Fatalf("header differs: %+v vs %+v", sc.Header(), log.Header)
	}
}

// scanOf runs ScanStats over a rendered log.
func scanOf(t *testing.T, log *Log) *StreamStats {
	t.Helper()
	st, err := ScanStats(bytes.NewReader(renderLog(t, log)))
	if err != nil {
		t.Fatalf("ScanStats: %v", err)
	}
	return st
}

func TestScanStatsRejectsUnsortedFixture(t *testing.T) {
	// The per-record counters never depend on order; checkCleanStream
	// holds them to Clean's even on the fallback verdict.
	if checkCleanStream(t, renderLog(t, readFixture(t))) {
		t.Fatal("mini.swf is unsorted; ScanStats must mark it non-streamable")
	}
	if st := scanOf(t, readFixture(t)); !st.Report.ResortedRecords {
		t.Fatal("ResortedRecords must be set for an unsorted log")
	}
}

func TestScanStatsRejectsFeedbackLogs(t *testing.T) {
	log := &Log{Records: []Record{
		{JobID: 1, Submit: 10, RunTime: 5, Procs: 2, AvgCPU: -1, Status: StatusCompleted, ThinkTime: -1, PrecedingJob: -1},
		{JobID: 2, Submit: 20, RunTime: 5, Procs: 2, AvgCPU: -1, Status: StatusCompleted, PrecedingJob: 1, ThinkTime: 3},
	}}
	st := scanOf(t, log)
	if !st.HasFeedback {
		t.Fatal("HasFeedback not detected")
	}
	if st.Streamable {
		t.Fatal("feedback references need the full ID map; must not be streamable")
	}
}

// checkCleanStream holds the streaming clean of raw to the
// materialized one, Read then Clean, which is the reference: ScanStats
// fails exactly when Read does; on any log its drop counters,
// DroppedNoSubmit and Jobs agree with Clean's; and on a log it marks
// Streamable its whole report does, and CleanStream yields exactly
// Clean's known-submit records, in order. It reports Streamable.
func checkCleanStream(t *testing.T, raw []byte) bool {
	t.Helper()
	log, readErr := Read(bytes.NewReader(raw))
	st, err := ScanStats(bytes.NewReader(raw))
	if errText(err) != errText(readErr) {
		t.Fatalf("ScanStats error %q, Read error %q\ninput %q", errText(err), errText(readErr), raw)
	}
	if err != nil {
		return false
	}
	clean, rep := Clean(log)
	// The materialized pipeline drops unknown-submit records after the
	// clean (they sink to the back); the stream never emits them.
	want := make([]Record, 0, len(clean.Records))
	for _, r := range clean.Records {
		if r.Submit >= 0 {
			want = append(want, r)
		}
	}
	got := st.Report
	if got.Input != rep.Input || got.Output != rep.Output ||
		got.DroppedPartials != rep.DroppedPartials ||
		got.DroppedNoRuntime != rep.DroppedNoRuntime ||
		got.DroppedNoProcs != rep.DroppedNoProcs ||
		got.ClampedCPU != rep.ClampedCPU ||
		st.DroppedNoSubmit != len(clean.Records)-len(want) || st.Jobs != len(want) {
		t.Fatalf("counters diverge: scan %+v (no-submit %d, jobs %d), clean %+v (no-submit %d, jobs %d)\ninput %q",
			got, st.DroppedNoSubmit, st.Jobs, rep, len(clean.Records)-len(want), len(want), raw)
	}
	if !st.Streamable {
		return false
	}
	if got != rep {
		t.Fatalf("CleanReport diverges:\nscan  %+v\nclean %+v\ninput %q", got, rep, raw)
	}
	cs := NewCleanStream(bytes.NewReader(raw), st)
	var recs []Record
	for cs.Scan() {
		recs = append(recs, cs.Record())
	}
	if err := cs.Err(); err != nil {
		t.Fatalf("CleanStream: %v\ninput %q", err, raw)
	}
	if len(recs) != len(want) {
		t.Fatalf("CleanStream yielded %d records, want %d\ninput %q", len(recs), len(want), raw)
	}
	for i := range recs {
		if recs[i] != want[i] {
			t.Fatalf("record %d differs:\nstream %+v\nclean  %+v\ninput %q", i, recs[i], want[i], raw)
		}
	}
	return true
}

// cleanEquiv asserts that log is streamable and that its streaming
// clean reproduces Clean's.
func cleanEquiv(t *testing.T, log *Log) {
	t.Helper()
	if !checkCleanStream(t, renderLog(t, log)) {
		t.Fatal("log should be streamable")
	}
}

// FuzzCleanStream holds the streaming clean to Clean on any input
// (checkCleanStream). The committed corpus in
// testdata/fuzz/FuzzCleanStream, which plain go test runs too, holds
// FuzzScanner's seeds and clean and dirty records of mini.swf.
func FuzzCleanStream(f *testing.F) {
	// Streamable, with an unknown submit, a partial and a repaired
	// processor count among its records.
	f.Add("; MaxNodes: 8\n" +
		"1 100 -1 10 2 -1 -1 2 60 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"2 -1 -1 10 2 -1 -1 2 60 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"3 150 -1 20 -1 30 -1 6 60 -1 1 1 1 -1 -1 -1 -1 -1\n" +
		"3 160 -1 5 2 -1 -1 2 60 -1 2 1 1 -1 -1 -1 -1 -1\n")
	f.Fuzz(func(t *testing.T, text string) {
		checkCleanStream(t, []byte(text))
	})
}

func TestStreamingCleanMatchesCleanOnCleanedFixture(t *testing.T) {
	// Clean's own output is sorted with unknown-submit records sunk to
	// the back — exactly the streamable shape — and it still contains
	// every anomaly class the per-record rules see on disk once
	// (epoch-shifted submits already rebased, so a second clean is a
	// near-identity pass).
	clean, _ := Clean(readFixture(t))
	cleanEquiv(t, clean)
}

func TestStreamingCleanMatchesCleanOnAdversarialLogs(t *testing.T) {
	rec := func(id, submit, runtime, procs int64) Record {
		return Record{JobID: id, Submit: submit, RunTime: runtime, Procs: procs,
			AvgCPU: -1, Status: StatusCompleted, PrecedingJob: -1, ThinkTime: -1}
	}
	cases := map[string]*Log{
		"epoch shift + sparse ids": {Records: []Record{
			rec(3, 915000000, 100, 4),
			rec(7, 915000050, 200, 8),
			rec(9, 915000050, 50, 1),
		}},
		"unknown submit in the middle": {Records: []Record{
			rec(1, 100, 10, 2),
			rec(2, -1, 10, 2), // sinks behind everything; replay drops it
			rec(3, 200, 10, 2),
			rec(4, 300, 10, 2),
		}},
		"partials and repairs interleaved": {Records: []Record{
			rec(1, 0, 10, 2),
			{JobID: 2, Submit: 5, RunTime: 10, Procs: 2, AvgCPU: -1, Status: StatusPartial, PrecedingJob: -1, ThinkTime: -1},
			{JobID: 2, Submit: 5, RunTime: 20, Procs: -1, ReqProcs: 6, AvgCPU: 999, Status: StatusKilled, PrecedingJob: -1, ThinkTime: -1},
			{JobID: 3, Submit: 9, RunTime: -1, Procs: 2, AvgCPU: -1, Status: StatusCompleted, PrecedingJob: -1, ThinkTime: -1},
			rec(4, 12, 10, 64), // oversize vs any header claim; survives cleaning
		}},
	}
	for name, log := range cases {
		t.Run(name, func(t *testing.T) { cleanEquiv(t, log) })
	}
}

func TestCleanStreamStopsOnParseError(t *testing.T) {
	raw := "1 0 -1 10 2 -1 -1 2 900 -1 1 1 1 1 1 1 -1 -1\nnot a record\n"
	st, err := ScanStats(strings.NewReader(raw))
	if err == nil {
		t.Fatalf("ScanStats accepted a malformed line: %+v", st)
	}
}
