package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"parsched/internal/core"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/outage"
	"parsched/internal/sched"
	"parsched/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

const backfillDepthsGolden = "testdata/backfill_depths.golden"

// backfillDepthSpecs are the backfilling configurations the depth
// golden pins: classic EASY with and without windows, deep EASY at two
// depths, and conservative backfilling, which reserves for the whole
// queue.
var backfillDepthSpecs = []string{
	"easy", "easy+win", "easy(reserve=2)", "easy(reserve=4, window)", "cons", "cons(window)",
}

// renderBackfillDepths runs every backfill spec over five seeded
// 32-node Lublin workloads at loads from 0.7 to 1.6, under three option
// sets: none; outages with advance reservations; and the same dropping
// killed jobs. It renders one line per run: a digest of the job
// outcomes, a digest of the reservation outcomes and the event count.
func renderBackfillDepths(t *testing.T) string {
	t.Helper()
	const nodes = 32
	var b strings.Builder
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// The memory synthesis draws from the estimate stream, so it
		// stays on: without it the estimates, and every line, would move.
		cfg := model.Config{
			MaxNodes: nodes, Jobs: 150, Seed: seed,
			Load:           0.7 + 0.225*float64(seed-1),
			EstimateFactor: 1.5 + rng.Float64(),
			Memory:         true, MemMeanKB: 64 * 1024,
		}
		wMake := func() *core.Workload { return lublin.Default().Generate(cfg) }
		span := wMake().Span()
		log := outage.Generate(outage.GeneratorConfig{
			Nodes: nodes, Horizon: span + 7*86400,
			MTBF:              stats.Exponential{Lambda: 1.0 / float64(3600+rng.Int63n(4*3600))},
			Repair:            stats.Exponential{Lambda: 1.0 / 1200},
			FailureNodes:      stats.Constant{C: 2},
			MaintenanceEvery:  6 * 3600,
			MaintenanceLength: 1800,
			MaintenanceLead:   2 * 3600,
		}, seed)
		var resvs []sched.Reservation
		for i := 0; i < 3; i++ {
			start := rng.Int63n(span + 1)
			resvs = append(resvs, sched.Reservation{
				ID: int64(1000 + i), Procs: 4 + rng.Intn(12),
				Start: start, End: start + 1800 + rng.Int63n(2*3600),
				Announced: start / (1 + rng.Int63n(3)),
			})
		}
		for _, o := range []struct {
			name string
			opts Options
		}{
			{"plain", Options{}},
			{"outages", Options{Outages: log, Reservations: resvs}},
			{"drop-killed", Options{Outages: log, Reservations: resvs, DropKilled: true}},
		} {
			for _, spec := range backfillDepthSpecs {
				res, err := Run(wMake(), mustNew(t, spec), o.opts)
				if err != nil {
					t.Fatalf("seed %d, %s, %s: %v", seed, o.name, spec, err)
				}
				jobs, grants := sha256.New(), sha256.New()
				for _, out := range res.Outcomes {
					fmt.Fprintf(jobs, "%+v\n", out)
				}
				for _, r := range res.Reservations {
					fmt.Fprintf(grants, "%+v\n", r)
				}
				fmt.Fprintf(&b, "seed=%d opts=%s spec=%s outcomes=%x reservations=%x events=%d\n",
					seed, o.name, spec, jobs.Sum(nil)[:8], grants.Sum(nil)[:8], res.Events)
			}
		}
	}
	return b.String()
}

// TestBackfillDepthsGolden pins the decisions of the backfill family at
// every reservation depth, byte for byte, against the committed golden.
// Any intentional change must be reviewed by regenerating with
// `go test ./internal/sim -run BackfillDepthsGolden -update`.
func TestBackfillDepthsGolden(t *testing.T) {
	got := renderBackfillDepths(t)
	if *updateGolden {
		if err := os.WriteFile(backfillDepthsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", backfillDepthsGolden, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(backfillDepthsGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gotLines {
		if i >= len(wantLines) || gotLines[i] != wantLines[i] {
			w := "<none>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("line %d diverges from golden:\n got: %s\nwant: %s", i+1, gotLines[i], w)
		}
	}
	if len(wantLines) != len(gotLines) {
		t.Fatalf("golden has %d lines, run rendered %d", len(wantLines), len(gotLines))
	}
}
