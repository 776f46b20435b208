// Command simsched replays a standard workload file through one or
// more machine schedulers and prints the metric battery.
//
//	simsched -sched easy,cons,fcfs -outages machine.outages trace.swf
//	simsched -sched 'easy(reserve=2, window),gang(mpl=5)' trace.swf
//	swfgen -model lublin99 -jobs 500 | simsched -sched easy
//	simsched -sched easy -warmup 500 -bsld-tau 60 trace.swf   # steady state
//	simsched -sched easy -sample 3600 trace.swf               # utilization series
//
// Metrics are streamed: each run feeds a metrics.Collector one
// completion at a time (wait percentiles appear in the table), -warmup
// truncates the transient (N jobs, or 3600s/2h of simulated time),
// -bsld-tau sets the bounded-slowdown floor, -sketch switches to
// O(1)-memory quantile sketches for huge logs, and -sample prints a
// utilization/queue-length/backlog time series per scheduler.
//
// Schedulers are named in the spec grammar (family(param, key=value));
// run with -h for the full catalogue of families, parameters, and
// legacy names — the help text is derived from the scheduler registry,
// so it cannot go stale.
//
// The trace is loaded through the shared trace-workload source
// (internal/workload/trace): cleaned with swf.Clean — the clean report
// is printed on stderr so a mutilated trace is never silent — and
// optionally rescaled to a target offered load by interarrival
// scaling. "-" or no argument reads the log from stdin. Each
// scheduler run is a RunSpec (internal/experiments), the same unified
// run configuration the experiment battery and the library facade use;
// a trace file runs through experiments.Execute, which streams the
// faithful replay of a streamable regular file and materializes
// everything else (a FIFO such as /dev/stdin is read once).
package main

import (
	"flag"
	"fmt"
	"os"

	"parsched/internal/experiments"
	"parsched/internal/metrics"
	"parsched/internal/sched"
	"parsched/internal/swf"
	"parsched/internal/workload/trace"
)

func main() {
	schedList := flag.String("sched", "fcfs,easy,cons",
		"comma-separated scheduler specs, e.g. 'easy,cons' or 'easy(reserve=2, window)'")
	outagePath := flag.String("outages", "", "outage log file (standard outage format)")
	feedback := flag.Bool("feedback", false, "honour preceding-job/think-time fields (closed loop)")
	perfect := flag.Bool("perfect-estimates", false, "schedulers see true runtimes")
	load := flag.Float64("scale-load", 0, "rescale offered load to this value before simulating (0 = as recorded)")
	jobs := flag.Int("jobs", 0, "replay only the first N jobs (0 = all)")
	warmup := flag.String("warmup", "", "steady-state truncation: drop the first N finished jobs (e.g. 500) or everything before a duration (e.g. 3600s, 2h)")
	bsldTau := flag.Int64("bsld-tau", 0, "bounded-slowdown runtime floor in seconds (0 = default 10)")
	sketch := flag.Bool("sketch", false, "O(1)-memory quantile sketches instead of exact percentiles")
	sample := flag.Int64("sample", 0, "print a utilization/queue/backlog time series sampled every N seconds (0 = off)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: simsched [flags] trace.swf   ('-' or no argument reads stdin)")
		flag.PrintDefaults()
		fmt.Fprint(os.Stderr, sched.Usage())
	}
	flag.Parse()

	if flag.NArg() > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *bsldTau < 0 {
		fail(fmt.Errorf("-bsld-tau: %d is not a positive duration", *bsldTau))
	}
	metricsSpec := experiments.MetricsSpec{
		Tau:         *bsldTau,
		Sketch:      *sketch,
		SampleEvery: *sample,
	}
	if *warmup != "" {
		j, secs, err := experiments.ParseWarmup(*warmup)
		if err != nil {
			fail(err)
		}
		metricsSpec.WarmupJobs, metricsSpec.WarmupTime = j, secs
	}

	// One RunSpec per scheduler: scheduler spec × source × options ×
	// load point, exactly the run configuration the battery uses.
	base := experiments.RunSpec{
		Jobs:  *jobs,
		Loads: []float64{*load},
		Sim: experiments.SimSpec{
			Feedback:         *feedback,
			PerfectEstimates: *perfect,
			OutagePath:       *outagePath,
		},
		Metrics: metricsSpec,
	}

	// A stdin log is parsed here and replayed from memory; a file
	// argument is left to Execute, which streams or materializes it.
	var src *trace.Source
	var summary string
	var err error
	if flag.NArg() == 0 || flag.Arg(0) == "-" {
		var log *swf.Log
		log, err = swf.Read(os.Stdin)
		if err == nil {
			name := log.Header.Computer
			if name == "" {
				name = "stdin"
			}
			src, err = trace.FromLog(name, log)
		}
		if err == nil {
			summary = "cleaned " + src.Name + ": " + src.CleanSummary()
		}
	} else {
		base.Source = experiments.ParseSource("trace:" + flag.Arg(0))
		summary, err = base.CleanSummary()
	}
	if err != nil {
		fail(err)
	}
	fmt.Fprintln(os.Stderr, "simsched:", summary)

	// Fail fast on a bad outage file, before any scheduler runs.
	if _, err := base.Sim.Options(); err != nil {
		fail(err)
	}

	specs := sched.SplitList(*schedList)
	if len(specs) == 0 {
		fail(fmt.Errorf("-sched names no schedulers"))
	}
	first := true
	for _, name := range specs {
		sp, err := sched.Parse(name)
		if err != nil {
			fail(err)
		}
		rs := base
		rs.Scheduler = sp
		var results []experiments.RunResult
		if src != nil {
			results, err = experiments.ExecuteSource(src, rs)
		} else {
			results, err = experiments.Execute(rs)
		}
		if err != nil {
			fail(err)
		}
		r := results[0]
		if first {
			fmt.Printf("workload: %s (%d jobs, %d nodes, offered load %.3f)\n",
				r.Workload.Name, r.Workload.Jobs, r.Workload.Nodes, r.Workload.OfferedLoad)
			if metricsSpec.WarmupJobs > 0 || metricsSpec.WarmupTime > 0 || metricsSpec.Tau > 0 {
				fmt.Printf("metrics: tau %ds, warmup %s\n",
					r.Report.Tau, warmupLabel(metricsSpec))
			}
			fmt.Println(metrics.TableHeader())
			first = false
		}
		fmt.Println(r.Report.TableRow())
		if r.Series != nil {
			printSeries(r.Report.Scheduler, r.Series)
		}
	}
}

// warmupLabel renders the active truncation policy.
func warmupLabel(ms experiments.MetricsSpec) string {
	switch {
	case ms.WarmupJobs > 0:
		return fmt.Sprintf("first %d jobs", ms.WarmupJobs)
	case ms.WarmupTime > 0:
		return fmt.Sprintf("first %ds", ms.WarmupTime)
	default:
		return "none"
	}
}

// printSeries renders the sampled time series under a run's table row.
func printSeries(sched string, ts *metrics.TimeSeries) {
	fmt.Printf("time-series for %s (every %ds):\n", sched, ts.Interval)
	fmt.Printf("  %10s %6s %6s %8s %14s\n", "t(s)", "util", "queue", "running", "backlog(ps)")
	for _, s := range ts.Samples {
		fmt.Printf("  %10d %6.3f %6d %8d %14d\n", s.Time, s.Utilization, s.Queued, s.Running, s.Backlog)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "simsched:", err)
	os.Exit(1)
}
