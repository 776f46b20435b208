// Feedback: Section 2.2's closed-loop argument made concrete. The same
// workload is replayed twice: open loop (recorded submit times) and
// closed loop (jobs in a user's edit-compile-run chain are submitted a
// think time after their predecessor terminates). Past saturation the
// open-loop replay explodes while the closed loop self-throttles —
// the reason the standard format has preceding-job and think-time
// fields.
package main

import (
	"fmt"
	"log"

	"parsched"
)

func main() {
	fmt.Println("open vs closed loop under rising load (lublin99 + inferred chains, easy)")
	fmt.Printf("%-6s  %14s  %14s  %8s\n", "load", "open resp(s)", "closed resp(s)", "linked")

	for _, load := range []float64{0.6, 0.8, 1.0, 1.2, 1.4} {
		w, err := parsched.Generate("lublin99", parsched.ModelConfig{
			MaxNodes: 128, Jobs: 3000, Seed: 23, Load: load, EstimateFactor: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Insert postulated dependencies exactly as the paper suggests:
		// same user, submitted within an hour of the previous job's
		// termination.
		linked := parsched.InferFeedback(w, 3600)

		open, err := parsched.Simulate(w, "easy", parsched.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		closed, err := parsched.Simulate(w, "easy", parsched.SimOptions{Feedback: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6.2f  %14.0f  %14.0f  %7.1f%%\n",
			load,
			open.Report(w.MaxNodes).Response.Mean,
			closed.Report(w.MaxNodes).Response.Mean,
			100*float64(linked)/float64(len(w.Jobs)))
	}
	fmt.Println("\n(the open-loop replay overstates saturation response: its arrivals ignore the system's own delays)")
}
