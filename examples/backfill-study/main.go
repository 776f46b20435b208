// Backfill study: the workhorse evaluation of the JSSPP community —
// a scheduler family compared on the same workload across a load
// sweep, showing where backfilling's advantage opens up and what bad
// user estimates cost it.
//
// Schedulers are named by spec strings (family(param, key=value)) and
// each sweep is one RunSpec — the unified, JSON-serializable run
// configuration — so the whole study is reproducible from the specs
// alone. Note "easy(reserve=2)": the backfill reservation depth is a
// spec parameter, not a new scheduler implementation.
package main

import (
	"fmt"
	"log"

	"parsched"
)

func main() {
	schedulers := []string{"fcfs", "firstfit", "sjf", "easy", "easy(reserve=2)", "cons"}
	loads := []float64{0.5, 0.7, 0.85, 0.95}

	// One RunSpec per scheduler: spec × source × load points. The same
	// seed and source mean every scheduler sees the same workloads.
	bsld := map[string][]parsched.RunResult{}
	for _, s := range schedulers {
		spec, err := parsched.ParseSchedulerSpec(s)
		if err != nil {
			log.Fatal(err)
		}
		results, err := parsched.Run(parsched.RunSpec{
			Scheduler: spec,
			Source:    parsched.ParseWorkloadSource("model:lublin99"),
			Jobs:      3000, Nodes: 128, Seed: 11,
			Loads: loads,
		})
		if err != nil {
			log.Fatal(err)
		}
		bsld[s] = results
	}

	fmt.Println("mean bounded slowdown by offered load (lublin99, 128 nodes, 3000 jobs)")
	fmt.Printf("%-6s", "load")
	for _, s := range schedulers {
		fmt.Printf("  %15s", s)
	}
	fmt.Println()
	for i, load := range loads {
		fmt.Printf("%-6.2f", load)
		for _, s := range schedulers {
			fmt.Printf("  %15.2f", bsld[s][i].Report.BSLD.Mean)
		}
		fmt.Println()
	}

	// The estimate-quality ablation: EASY with the users' padded
	// estimates versus perfect information — the same RunSpec with one
	// sim option flipped.
	rs := parsched.RunSpec{
		Scheduler: parsched.SchedulerSpec{Family: "easy"},
		Source:    parsched.ParseWorkloadSource("model:lublin99"),
		Jobs:      3000, Nodes: 128, Seed: 11,
		Loads: []float64{0.85},
	}
	user, err := parsched.Run(rs)
	if err != nil {
		log.Fatal(err)
	}
	rs.Sim.PerfectEstimates = true
	perfect, err := parsched.Run(rs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEASY sensitivity to estimate quality (load 0.85):")
	fmt.Printf("  user estimates:    mean wait %6.0fs\n", user[0].Report.Wait.Mean)
	fmt.Printf("  perfect estimates: mean wait %6.0fs\n", perfect[0].Report.Wait.Mean)
}
