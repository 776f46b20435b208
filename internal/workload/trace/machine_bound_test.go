package trace

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"parsched/internal/core"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/swf"
)

// TestMachineBeyondBoundIsAnError: a log whose MaxNodes header claims
// one node more than core.MaxMachine is an error naming the size on
// the materialized and the streamed trace paths, and so is such a
// machine at both simulator entry points, before the simulator sizes
// anything for it.
func TestMachineBeyondBoundIsAnError(t *testing.T) {
	n := core.MaxMachine + 1
	want := fmt.Sprintf("machine of %d nodes", n)
	check := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %q", what, err, want)
		}
	}
	log := &swf.Log{
		Header: swf.Header{Version: 2, MaxNodes: int64(n)},
		Records: []swf.Record{{JobID: 1, Submit: 0, Wait: 0, RunTime: 100, Procs: 4, ReqProcs: 4,
			Status: swf.StatusCompleted, User: 1, Group: 1, App: 1, Queue: 1,
			Partition: 1, PrecedingJob: swf.Missing, ThinkTime: swf.Missing,
			AvgCPU: swf.Missing, UsedMem: swf.Missing, ReqTime: 200, ReqMem: swf.Missing}},
	}
	_, err := FromLog("wide", log)
	check("FromLog", err)
	path := filepath.Join(t.TempDir(), "wide.swf")
	if err := swf.WriteFile(path, log); err != nil {
		t.Fatal(err)
	}
	_, err = OpenStream(path)
	check("OpenStream", err)

	jobs := []*core.Job{{ID: 1, Size: 4, Runtime: 100, Estimate: 200}}
	_, err = sim.Run(&core.Workload{Name: "wide", MaxNodes: n, Jobs: jobs}, sched.NewEASY(), sim.Options{})
	check("sim.Run", err)
	_, err = sim.RunStream("wide", n, core.NewSliceStream(jobs), sched.NewEASY(), sim.Options{})
	check("sim.RunStream", err)
	if err := core.CheckMachine(core.MaxMachine); err != nil {
		t.Errorf("a machine at the bound is rejected: %v", err)
	}
}
