// Metacomputing: Figure 1 of the paper end to end. Users submit meta
// jobs to a meta-scheduler, which consults per-site queue-wait
// predictors and dispatches to machine schedulers (EASY instances on
// each site); a co-allocating application then negotiates simultaneous
// advance reservations across two sites.
package main

import (
	"fmt"
	"log"

	"parsched/internal/core"
	"parsched/internal/meta"
	"parsched/internal/metrics"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/predict"
	"parsched/internal/sched"
	"parsched/internal/stats"
)

func main() {
	// --- Machine schedulers (Figure 1, bottom): four sites with their
	// own local workloads at very different loads.
	var specs []meta.SiteSpec
	for i, load := range []float64{0.3, 0.5, 0.8, 1.1} {
		local := lublin.Default().Generate(model.Config{
			MaxNodes: 64, Jobs: 800, Seed: int64(100 + i), Load: load, EstimateFactor: 2,
		})
		local.Name = fmt.Sprintf("local-%d", i)
		specs = append(specs, meta.SiteSpec{
			Name:      fmt.Sprintf("site%d", i),
			Nodes:     64,
			Scheduler: sched.NewEASYWindows(),
			Local:     local,
			Predictor: predict.NewCategory(),
		})
	}
	grid, err := meta.NewGrid(specs)
	if err != nil {
		log.Fatal(err)
	}

	// --- Users (Figure 1, top): a stream of meta jobs handed to the
	// meta-scheduler.
	rng := stats.NewRNG(2026)
	var jobs []*core.Job
	t := int64(3600)
	for i := 0; i < 150; i++ {
		t += int64(rng.Intn(2000)) + 100
		rt := int64(600 + rng.Intn(5400))
		jobs = append(jobs, &core.Job{
			ID: int64(i + 1), Submit: t, Size: 1 << rng.Intn(5),
			Runtime: rt, Estimate: 2 * rt, User: 1 + int64(rng.Intn(12)),
		})
	}
	grid.SubmitMeta(jobs, meta.PredictedWaitPolicy{})

	// --- A co-allocating meta application: 64 processors split across
	// two sites, simultaneously, for two hours.
	grid.SubmitCoAlloc([]meta.CoAllocRequest{
		{ID: 1, Submit: 50000, Procs: 64, Duration: 7200, Parts: 2},
	})

	grid.Run(0)

	outs, lost := grid.MetaOutcomes()
	r := metrics.Compute("predicted-wait", "grid", outs, grid.TotalNodes())
	fmt.Printf("meta-scheduler: %d meta jobs dispatched (%d infeasible)\n", len(outs), lost)

	// One shared metrics table for the meta view and every machine
	// scheduler — the renderer lives on Report, so new columns (the
	// wait percentiles) appear here automatically.
	fmt.Println(metrics.TableHeader())
	fmt.Println(r.TableRow())
	for _, row := range metrics.SortedTableRows("easy+win", grid.LocalOutcomes(), 64) {
		fmt.Println(row)
	}

	for _, ca := range grid.CoAllocations() {
		fmt.Printf("co-allocation: %d procs across %v, negotiated start +%ds, granted=%v\n",
			ca.Request.Procs, ca.Sites, ca.Delay(), ca.Granted)
	}
}
