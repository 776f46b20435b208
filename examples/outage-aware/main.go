// Outage-aware scheduling: Section 2.2's outage-format proposal put to
// work. A machine suffers weekly announced maintenance plus random node
// failures; an outage-oblivious EASY restarts every job the maintenance
// kills, while the aware variant drains around the announced windows.
// The outage log uses exactly the fields the paper proposes (announced
// time, start, end, type, affected components).
package main

import (
	"fmt"
	"log"

	"parsched"
	"parsched/internal/outage"
	"parsched/internal/stats"
)

func main() {
	w, err := parsched.Generate("lublin99", parsched.ModelConfig{
		MaxNodes: 128, Jobs: 3000, Seed: 17, Load: 0.7, EstimateFactor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	horizon := w.Span() + 7*86400

	olog := outage.Generate(outage.GeneratorConfig{
		Nodes:   128,
		Horizon: horizon,
		// Node failures roughly daily, ~30 minute repairs, sudden.
		MTBF:   stats.Exponential{Lambda: 1.0 / 86400},
		Repair: stats.LogNormal{Mu: 7.5, Sigma: 0.7},
		// Whole-machine maintenance: 4 hours weekly, announced a day
		// ahead — the "known in advance" case of the outage format.
		MaintenanceEvery:  7 * 86400,
		MaintenanceLength: 4 * 3600,
		MaintenanceLead:   86400,
	}, 99)
	planned, sudden := 0, 0
	for _, r := range olog.Records {
		if r.Kind.Planned() {
			planned++
		} else {
			sudden++
		}
	}
	fmt.Printf("outage log: %d records (%d announced maintenance, %d sudden failures)\n\n",
		len(olog.Records), planned, sudden)

	fmt.Printf("%-10s  %10s  %9s  %9s  %14s\n", "scheduler", "meanWait", "meanBSLD", "restarts", "lostWork(p-h)")
	for _, schedName := range []string{"easy", "easy+win"} {
		res, err := parsched.Simulate(w, schedName, parsched.SimOptions{Outages: olog})
		if err != nil {
			log.Fatal(err)
		}
		r := res.Report(w.MaxNodes)
		fmt.Printf("%-10s  %9.0fs  %9.2f  %9d  %14.1f\n",
			schedName, r.Wait.Mean, r.BSLD.Mean, r.Restarts, float64(r.LostWork)/3600)
	}
	fmt.Println("\n(the aware scheduler avoids starting jobs that would cross announced windows:")
	fmt.Println(" maintenance kills disappear; only the sudden failures still cost work)")
}
