// Command bench is the repository's benchmark: four workloads that
// replay generated inputs through the simulator, time every operation,
// check every output, and, in a separate traced phase, break the cost
// down by layer. README.md explains the workloads, the metrics and how
// to read them.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bench [-runs k] [-seed n] [-seconds s] [-trace 0|1] [-out set.json]
//	bench -compare A.json B.json
//	bench -update-reference
//
// With --workload, one run of that workload prints "workload metric
// value unit" lines and, last, one JSON object with the run's result.
// Without it, every workload runs in its own child process, one after
// another, k times at seeds n, n+1, ...; -out collects the runs, and
// -compare judges two such files against the bounds in BENCHMARK.json.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run one workload; without it every workload runs, each in a child process")
	seed := flag.Int64("seed", defaultSeed, "seed every input generator derives from")
	seconds := flag.Float64("seconds", 15, "seconds of measured ops per run")
	traceFlag := flag.Int("trace", 0, "1 adds the traced phase and reports the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
	out := flag.String("out", "", "without -workload: write every run's metrics to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
	update := flag.Bool("update-reference", false, "rewrite bench/testdata/reference.json from the current program")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two files")
			os.Exit(2)
		}
		os.Exit(compareFiles("BENCHMARK.json", flag.Arg(0), flag.Arg(1), os.Stdout))
	case *traceFlag != 0 && *traceFlag != 1, *seconds <= 0, *runs < 1:
		fmt.Fprintln(os.Stderr, "bench: -trace must be 0 or 1, -seconds and -runs positive")
		os.Exit(2)
	case *update:
		if err := updateReference("."); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	case *workload == "":
		os.Exit(runSet(setOptions{*seed, *seconds, *traceFlag, *runs, *out}))
	default:
		os.Exit(runOne(*workload, *seed, *seconds, *traceFlag == 1))
	}
}

// scratchDir holds generated input files, under the checkout.
func scratchDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "inputs")
	return dir, os.MkdirAll(dir, 0o755)
}

func runOne(name string, seed int64, seconds float64, traced bool) int {
	// One client, one thread: the closed loop the benchmark defines,
	// with garbage collection inside the measured time.
	runtime.GOMAXPROCS(1)
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := scratchDir(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	r, err := measure(name, runOptions{
		runConfig: runConfig{seed: seed, root: ".", scratch: scratch},
		budget:    time.Duration(seconds * float64(time.Second)),
		trace:     traced,
		ref:       ref,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := r.print(os.Stdout, traced); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return exitCode(r)
}

// exitCode fails a run in which any op failed its output check.
func exitCode(r *runResult) int {
	if r.correct() {
		return 0
	}
	return 1
}

type setOptions struct {
	seed    int64
	seconds float64
	trace   int
	runs    int
	out     string
}

// setRun is one child run as recorded in an -out file.
type setRun struct {
	Workload  string                `json:"workload"`
	Seed      int64                 `json:"seed"`
	Trace     int                   `json:"trace"`
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]savedValue `json:"metrics"`
}

type savedValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type setFile struct {
	Runs []setRun `json:"runs"`
}

// runSet runs every workload in its own child process, one at a time,
// so each run's peak memory is its own and only one run loads the
// machine.
func runSet(o setOptions) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var set setFile
	status := 0
	for k := 0; k < o.runs; k++ {
		for _, sp := range specs {
			run, err := runChild(exe, sp.name, o.seed+int64(k), o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", sp.name, o.seed+int64(k), err)
				status = 1
			}
			if run != nil {
				set.Runs = append(set.Runs, *run)
			}
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(set, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return status
}

// runChild runs one workload in a child process, passing its output
// through and recording every metric line and its result.
func runChild(exe, name string, seed int64, o setOptions) (*setRun, error) {
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(o.trace)}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run := &setRun{Workload: name, Seed: seed, Trace: o.trace, Metrics: map[string]savedValue{}}
	sc := bufio.NewScanner(stdout)
	var last string
	for sc.Scan() {
		last = sc.Text()
		fmt.Println(last)
		f := strings.Fields(last)
		if len(f) != 4 || f[0] != name {
			continue
		}
		if v, err := strconv.ParseFloat(f[2], 64); err == nil {
			run.Metrics[f[1]] = savedValue{v, f[3]}
		}
	}
	scanErr := sc.Err()
	waitErr := cmd.Wait()
	if scanErr != nil {
		return nil, scanErr
	}
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, errors.Join(fmt.Errorf("no result line: %w", err), waitErr)
	}
	run.Correct, run.Attempted, run.Failed = res.Correct, res.Attempted, res.Failed
	return run, waitErr
}

// updateReference rewrites the committed digests: one op of every
// simulation workload at defaultSeed, at full and smoke size. The
// battery is checked against its own golden instead.
func updateReference(root string) error {
	scratch, err := scratchDir(root)
	if err != nil {
		return err
	}
	ref := reference{}
	for _, sp := range specs {
		for _, smoke := range []bool{false, true} {
			w, err := sp.new(runConfig{seed: defaultSeed, smoke: smoke, root: root, scratch: scratch})
			if err != nil {
				return err
			}
			d, err := oneDigest(w)
			w.close()
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if _, isBattery := w.(*battery); !isBattery {
				ref[refKey(sp.name, smoke)] = d
			}
		}
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "testdata", "reference.json"), append(data, '\n'), 0o644)
}

// oneDigest sets a workload up and returns the digest of one op.
func oneDigest(w workload) (string, error) {
	if err := w.setup(); err != nil {
		return "", err
	}
	out, err := w.op(nil)
	if err != nil {
		return "", err
	}
	return out.digest()
}
