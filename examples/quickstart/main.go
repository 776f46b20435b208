// Quickstart: generate a workload from the Lublin model, write it as a
// Standard Workload Format file, read it back, simulate it under EASY
// backfilling, and print the metric battery — the full paper pipeline
// in thirty lines.
package main

import (
	"bytes"
	"fmt"
	"log"

	"parsched"
)

func main() {
	// 1. Generate a synthetic workload with the model the paper calls
	//    "relatively representative of multiple workloads".
	w, err := parsched.Generate("lublin99", parsched.ModelConfig{
		MaxNodes: 128, Jobs: 2000, Seed: 7, Load: 0.75, EstimateFactor: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Round-trip it through the standard workload format.
	var buf bytes.Buffer
	if err := parsched.WriteSWF(&buf, parsched.WorkloadToSWF(w)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SWF file: %d bytes, first line of data:\n", buf.Len())
	swfLog, err := parsched.ReadSWF(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s\n", swfLog.Records[0])
	if findings := parsched.ValidateSWF(swfLog); len(findings) > 0 {
		log.Fatalf("generated file violates the standard: %s", findings[0])
	}
	fmt.Println("  validates cleanly against the standard's consistency rules")

	// 3. Simulate under two schedulers and compare. Schedulers are
	//    named by spec strings — family(param, key=value) — parsed and
	//    validated against the scheduler registry; "fcfs" and "easy"
	//    are the zero-parameter specs of their families.
	for _, scheduler := range []string{"fcfs", "easy"} {
		spec, err := parsched.ParseSchedulerSpec(scheduler)
		if err != nil {
			log.Fatal(err)
		}
		res, err := parsched.Simulate(w, spec.String(), parsched.SimOptions{})
		if err != nil {
			log.Fatal(err)
		}
		r := res.Report(w.MaxNodes)
		fmt.Printf("%-5s mean wait %6.0fs   mean bounded slowdown %7.2f   utilization %.3f\n",
			scheduler, r.Wait.Mean, r.BSLD.Mean, r.Utilization)
	}
	fmt.Println("(backfilling should cut both wait and slowdown at equal utilization)")
}
