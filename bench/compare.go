package main

// -compare: is set B no worse than set A, metric by metric? For every
// (workload, end-to-end metric) pair it prints each side's median and
// quartiles over the runs, and a verdict against the metric's bound
// from BENCHMARK.json:
//
//	ok          B's median is not worse than A's by more than the bound
//	worse       it is
//	unresolved  a side's spread (quartile distance over median) is wider
//	            than the bound, so the sets cannot tell; unless every B
//	            run reads better than every A run, which is ok
//
// Quartiles follow Python's statistics.quantiles(values, n=4), the
// method the bound is defined with.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// quartiles returns Q1, the median and Q3 of xs by the exclusive method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	var q [3]float64
	n := len(d)
	if n == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

func spread(q [3]float64) float64 { return (q[2] - q[0]) / q[1] }

// verdict judges B against A for one metric.
func verdict(a, b []float64, m boundedMetric) string {
	qa, qb := quartiles(a), quartiles(b)
	worse := func(x, base float64) bool {
		if m.Better == "higher" {
			return x < base
		}
		return x > base
	}
	if spread(qa) > m.Bound || spread(qb) > m.Bound {
		for _, x := range b {
			for _, y := range a {
				if !worse(y, x) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	limit := qa[1] * (1 + m.Bound)
	if m.Better == "higher" {
		limit = qa[1] * (1 - m.Bound)
	}
	if worse(qb[1], limit) {
		return "worse"
	}
	return "ok"
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints the comparison of two -out files and returns the
// exit status: 1 when any pair is worse.
func compareFiles(benchmarkPath, pathA, pathB string, w io.Writer) int {
	var bench struct {
		EndToEnd []boundedMetric `json:"end_to_end"`
	}
	var a, b setFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchmarkPath, &bench}, {pathA, &a}, {pathB, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	values := func(s setFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range s.Runs {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				out = append(out, v.Value)
			}
		}
		return out
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [Q1, Q3] (n)\tB median [Q1, Q3] (n)\tB/A\tspread A/B\tbound\tverdict")
	status := 0
	for _, name := range workloadOrder(a, b) {
		for _, m := range bench.EndToEnd {
			va, vb := values(a, name, m.Name), values(b, name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t(n=%d)\t(n=%d)\t\t\t%g\tmissing\n", name, m.Name, len(va), len(vb), m.Bound)
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			v := verdict(va, vb, m)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%.3f\t%.3f/%.3f\t%g\t%s\n",
				name, m.Name, qa[1], qa[0], qa[2], len(va), qb[1], qb[0], qb[2], len(vb),
				qb[1]/qa[1], spread(qa), spread(qb), m.Bound, v)
		}
	}
	tw.Flush()
	return status
}

// workloadOrder lists the workloads of both sets in first-seen order.
func workloadOrder(sets ...setFile) []string {
	var names []string
	seen := map[string]bool{}
	for _, s := range sets {
		for _, r := range s.Runs {
			if !seen[r.Workload] {
				seen[r.Workload] = true
				names = append(names, r.Workload)
			}
		}
	}
	return names
}
