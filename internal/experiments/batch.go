package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"parsched/internal/stats"
)

// The batch layer shards the battery into (experiment × replication)
// cells and runs them on a bounded worker pool. Each cell derives its
// own seed from the base configuration — workers never share RNG
// state — so a parallel run is bit-identical to the serial run of the
// same cells, in any worker order.

// SeedStride separates replication seeds. It is a prime far larger
// than any intra-experiment seed offset (experiments derive site and
// stream seeds as cfg.Seed plus small constants), so replication seed
// spaces cannot collide.
const SeedStride int64 = 1_000_003

// RepSeed derives the deterministic seed for replication rep of a
// battery based at seed base. Replication 0 keeps the base seed, which
// is what makes `-reps 1` output identical to the classic serial path.
func RepSeed(base int64, rep int) int64 { return base + int64(rep)*SeedStride }

// Cell is one schedulable unit: a single experiment at a single
// replication seed.
type Cell struct {
	Runner Runner
	Rep    int
	Seed   int64
}

// CellResult is the outcome of one cell. Index is the cell's position
// in the deterministic cell order (see Cells), which lets consumers of
// the completion-order OnCell callback reassemble in-order streams.
type CellResult struct {
	Index   int           `json:"index"`
	ID      string        `json:"id"`
	Title   string        `json:"title"`
	Rep     int           `json:"rep"`
	Seed    int64         `json:"seed"`
	Tables  []Table       `json:"tables,omitempty"`
	Err     string        `json:"error,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
}

// SummaryRow aggregates one typed metric across replications.
type SummaryRow struct {
	Experiment string            `json:"experiment"`
	Table      string            `json:"table"`
	Labels     map[string]string `json:"labels,omitempty"`
	Name       string            `json:"name"`
	N          int               `json:"n"`
	Mean       float64           `json:"mean"`
	Std        float64           `json:"std"`
	CI95       float64           `json:"ci95"` // Student-t 95% half-width
}

// BatchResult is the structured outcome of a battery run.
type BatchResult struct {
	Config    Config        `json:"config"`
	Parallel  int           `json:"parallel"`
	Reps      int           `json:"reps"`
	Cells     []CellResult  `json:"cells"`
	Summaries []SummaryRow  `json:"summaries,omitempty"`
	Elapsed   time.Duration `json:"elapsed_ns"`
}

// Failed returns the cells that ended in an error.
func (b *BatchResult) Failed() []CellResult {
	var out []CellResult
	for _, c := range b.Cells {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}

// BatchOptions configures a battery run.
type BatchOptions struct {
	// Parallel is the worker-pool size; <= 0 means runtime.NumCPU().
	Parallel int
	// Reps is the number of replications per experiment; < 1 means 1.
	Reps int
	// OnCell, when set, is called once per finished cell, from worker
	// goroutines in completion order (not cell order). It must be
	// safe for concurrent use when Parallel > 1.
	OnCell func(CellResult)
}

func (o BatchOptions) withDefaults() BatchOptions {
	if o.Parallel <= 0 {
		o.Parallel = runtime.NumCPU()
	}
	if o.Reps < 1 {
		o.Reps = 1
	}
	return o
}

// Cells expands runners × replications into the deterministic cell
// list: experiment-major, replications in order, so Cells[i] always
// names the same work regardless of worker count.
func Cells(runners []Runner, cfg Config, reps int) []Cell {
	base := cfg.withDefaults().Seed
	if reps < 1 {
		reps = 1
	}
	out := make([]Cell, 0, len(runners)*reps)
	for _, r := range runners {
		for rep := 0; rep < reps; rep++ {
			out = append(out, Cell{Runner: r, Rep: rep, Seed: RepSeed(base, rep)})
		}
	}
	return out
}

// RunBatch executes the battery over a bounded worker pool and returns
// results in cell order (experiment-major, then replication), whatever
// order workers finished in. A cell that fails — by returned error or
// recovered panic — is recorded and does not stop the rest of the
// battery. Cancelling ctx stops un-started cells, which are recorded
// with the context error; cells already running finish normally.
func RunBatch(ctx context.Context, runners []Runner, cfg Config, opt BatchOptions) *BatchResult {
	opt = opt.withDefaults()
	cells := Cells(runners, cfg, opt.Reps)
	// Wall-clock here times the batch for the human reading the
	// report; nothing simulated observes it.
	start := time.Now() //schedlint:allow determinism batch elapsed time is diagnostic output, not simulation state

	results := make([]CellResult, len(cells))
	idxCh := make(chan int)
	var wg sync.WaitGroup
	workers := opt.Parallel
	if workers > len(cells) {
		workers = len(cells)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		// The workers share state: results is index-partitioned (one
		// cell per slot), cells and cfg are read-only after launch, and
		// wg.Wait() is the reuse barrier. OnCell runs on the workers, so
		// a callback that writes shared state must lock it.
		go func() {
			defer wg.Done()
			for i := range idxCh {
				results[i] = runCell(ctx, cells[i], cfg)
				results[i].Index = i
				if opt.OnCell != nil {
					opt.OnCell(results[i])
				}
			}
		}()
	}
	for i := range cells {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	br := &BatchResult{
		Config:   cfg.withDefaults(),
		Parallel: opt.Parallel,
		Reps:     opt.Reps,
		Cells:    results,
		Elapsed:  time.Since(start), //schedlint:allow determinism batch elapsed time is diagnostic output, not simulation state
	}
	if opt.Reps > 1 {
		br.Summaries = summarize(results)
	}
	return br
}

// runCell executes one cell, converting panics to errors so a broken
// experiment cannot take down the pool.
func runCell(ctx context.Context, c Cell, cfg Config) (out CellResult) {
	out = CellResult{ID: c.Runner.ID, Title: c.Runner.Title, Rep: c.Rep, Seed: c.Seed}
	if err := ctx.Err(); err != nil {
		out.Err = err.Error()
		return out
	}
	start := time.Now() //schedlint:allow determinism per-cell wall-clock timing is diagnostic output, not simulation state
	defer func() {
		out.Elapsed = time.Since(start) //schedlint:allow determinism per-cell wall-clock timing is diagnostic output, not simulation state
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
			out.Tables = nil
		}
	}()
	cellCfg := cfg
	cellCfg.Seed = c.Seed
	// Trace sources replay rep 0 faithfully and resample arrivals for
	// later reps; model sources ignore Rep (the derived seed varies).
	cellCfg.Rep = c.Rep
	tables, err := c.Runner.Run(cellCfg)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Tables = tables
	return out
}

// summarize groups typed metrics by (experiment, table, labels, name)
// across replications and reduces each group to mean, std, and a
// Student-t 95% confidence half-width (replications use independent
// derived seeds, so plain i.i.d. intervals apply — no batch means
// needed). Groups appear in first-seen cell order, so the summary is
// deterministic for a deterministic cell list.
func summarize(cells []CellResult) []SummaryRow {
	type group struct {
		row  SummaryRow
		vals []float64
	}
	var order []string
	groups := map[string]*group{}
	for _, c := range cells {
		if c.Err != "" {
			continue
		}
		for _, tb := range c.Tables {
			for _, m := range tb.Metrics {
				key := c.ID + "\x00" + tb.ID + "\x00" + m.LabelKey() + "\x00" + m.Name
				g, ok := groups[key]
				if !ok {
					g = &group{row: SummaryRow{
						Experiment: c.ID, Table: tb.ID, Labels: m.Labels, Name: m.Name,
					}}
					groups[key] = g
					order = append(order, key)
				}
				g.vals = append(g.vals, m.Value)
			}
		}
	}
	out := make([]SummaryRow, 0, len(order))
	for _, key := range order {
		g := groups[key]
		s := stats.Summarize(g.vals)
		g.row.N = s.N
		g.row.Mean = s.Mean
		g.row.Std = s.Std
		if s.N > 1 {
			g.row.CI95 = stats.TQuantile95(s.N-1) * s.Std / math.Sqrt(float64(s.N))
		}
		out = append(out, g.row)
	}
	return out
}

// SummaryTables renders the aggregated rows as one table per
// experiment, for human-readable multi-rep output.
func SummaryTables(rows []SummaryRow) []Table {
	var order []string
	byExp := map[string]*Table{}
	for _, r := range rows {
		t, ok := byExp[r.Experiment]
		if !ok {
			t = &Table{
				ID:     r.Experiment + "/summary",
				Title:  "replication summary (mean ± 95% CI)",
				Header: []string{"table", "labels", "metric", "n", "mean", "ci95", "std"},
			}
			byExp[r.Experiment] = t
			order = append(order, r.Experiment)
		}
		// n is per-row: a metric observed only under some seeds (e.g.
		// E10's agreementPct) aggregates over fewer replications.
		t.AddRow(r.Table, Metric{Labels: r.Labels}.LabelKey(), r.Name,
			fmt.Sprintf("%d", r.N), f(r.Mean), f(r.CI95), f(r.Std))
	}
	out := make([]Table, 0, len(order))
	for _, id := range order {
		out = append(out, *byExp[id])
	}
	return out
}
