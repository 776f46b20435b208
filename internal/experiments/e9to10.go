package experiments

import (
	"fmt"
	"math"

	"parsched/internal/core"
	"parsched/internal/graph"
	"parsched/internal/model"
	"parsched/internal/model/lublin"
	"parsched/internal/model/registry"
	"parsched/internal/stats"
	"parsched/internal/warmstones"
	"parsched/internal/workload/trace"
)

// E9ModelFidelity reproduces the model-versus-log comparison the paper
// cites from Talby et al. [58] ("the one proposed by Lublin is
// relatively representative of multiple workloads"), reduced from the
// co-plot method to per-marginal Kolmogorov-Smirnov distances. The
// reference log is a large sample from the Lublin model under a
// *different seed and different load*, standing in for an archive
// trace whose invariants that model was fitted to (substitution
// recorded in DESIGN.md); each model's marginals are compared against
// it. By construction the Lublin model should rank best and the naive
// guesswork baseline worst — the paper's point that measurement-based
// models beat guesswork.
func E9ModelFidelity(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	title := "model fidelity vs reference log " +
		"(K-S distances on three marginals + structural attribute gaps; lower = closer)"
	var ref *core.Workload
	if kind, _ := cfg.sourceSpec(); kind == sourceTrace {
		// With a real log configured, the substitution recorded in
		// DESIGN.md ends: the models are compared against the trace
		// itself, as recorded (no rescaling, no resampling) — the
		// co-plot comparison the paper actually describes.
		src, err := cfg.traceSource()
		if err != nil {
			return nil, err
		}
		ref = src.Workload(trace.Options{})
		title = fmt.Sprintf("model fidelity vs real log %s "+
			"(K-S distances on three marginals + structural attribute gaps; lower = closer)", src.Name)
	} else {
		ref = lublin.Default().Generate(model.Config{
			MaxNodes: cfg.Nodes, Jobs: cfg.Jobs * 2, Seed: cfg.Seed + 10007, Load: 0.65,
		})
	}
	refGaps, refSizes, refRTs := model.Marginals(ref)
	refPow2 := model.Pow2Fraction(ref)
	refSerial := model.SerialFraction(ref)

	t := Table{
		ID:     "E9",
		Title:  title,
		Header: []string{"model", "KS(arrival)", "KS(size)", "KS(runtime)", "d(pow2)", "d(serial)", "composite"},
	}
	type scored struct {
		name string
		d    float64
	}
	var scores []scored
	for _, name := range []string{"lublin99", "feitelson96", "jann97", "downey97", "naive"} {
		m, err := registry.New(name)
		if err != nil {
			return nil, fmt.Errorf("workload model %q: %w", name, err)
		}
		w := m.Generate(model.Config{MaxNodes: cfg.Nodes, Jobs: cfg.Jobs, Seed: cfg.Seed, Load: cfg.fixedLoad(0.7)})
		gaps, sizes, rts := model.Marginals(w)
		kg := stats.KSStatistic(refGaps, gaps)
		ks := stats.KSStatistic(refSizes, sizes)
		kr := stats.KSStatistic(refRTs, rts)
		dp := math.Abs(model.Pow2Fraction(w) - refPow2)
		dn := math.Abs(model.SerialFraction(w) - refSerial)
		// Composite distance: equal-weight mean over the five attribute
		// distances, the scalar reduction of the multi-attribute co-plot.
		composite := (kg + ks + kr + dp + dn) / 5
		scores = append(scores, scored{name, composite})
		t.AddRow(name, f3(kg), f3(ks), f3(kr), f3(dp), f3(dn), f3(composite))
		t.Observe(map[string]string{"model": name}, map[string]float64{
			"ksArrival": kg, "ksSize": ks, "ksRuntime": kr,
			"dPow2": dp, "dSerial": dn, "composite": composite,
		})
	}
	best, worst := scores[0], scores[0]
	for _, s := range scores {
		if s.d < best.d {
			best = s
		}
		if s.d > worst.d {
			worst = s
		}
	}
	t.Note("closest model: %s (composite %.3f); farthest: %s (%.3f)", best.name, best.d, worst.name, worst.d)
	t.Note("expected shape: lublin99 closest (the [58] finding); naive guesswork farthest (no power-of-two or serial structure)")
	return []Table{t}, nil
}

// E10Warmstones runs the WARMstones evaluation environment of Section
// 4.3: the micro-benchmark suite (Section 3.2) across the three
// canonical metasystem configurations under three mapping policies,
// reporting event-driven makespans; a second table quantifies the
// agreement between the two simulation fidelities.
func E10Warmstones(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	suite := warmstones.StandardSuite(cfg.Seed)
	mappers := []warmstones.Mapper{
		warmstones.RoundRobin{}, warmstones.LoadBalance{}, warmstones.CommAware{},
	}

	board := Table{
		ID:     "E10/scoreboard",
		Title:  "WARMstones makespans (seconds, event-driven engine)",
		Header: []string{"system", "graph", "round-robin", "load-balance", "comm-aware"},
	}
	fidelity := Table{
		ID:     "E10/fidelity",
		Title:  "multi-fidelity agreement (estimate vs simulation)",
		Header: []string{"system", "distinctPairs", "agreement%", "meanAbsRelErr"},
	}

	for _, sys := range warmstones.StandardSystems() {
		// Device-bound graphs only run on the system that has devices.
		graphs := append([]*graph.Graph(nil), suite[0], suite[1], suite[3])
		if sys.Name == "super+workstations" {
			graphs = append(graphs, suite[2])
		}
		scores, err := warmstones.Evaluate(graphs, sys, mappers)
		if err != nil {
			return nil, fmt.Errorf("evaluating %q: %w", sys.Name, err)
		}
		// Scoreboard rows: one per graph, columns per mapper.
		byGraph := map[string]map[string]warmstones.Score{}
		for _, s := range scores {
			if byGraph[s.Graph] == nil {
				byGraph[s.Graph] = map[string]warmstones.Score{}
			}
			byGraph[s.Graph][s.Mapper] = s
		}
		for _, g := range graphs {
			row := byGraph[g.Name]
			board.AddRow(sys.Name, g.Name,
				f(row["round-robin"].Makespan),
				f(row["load-balance"].Makespan),
				f(row["comm-aware"].Makespan))
			for _, mn := range []string{"round-robin", "load-balance", "comm-aware"} {
				board.Observe(map[string]string{"system": sys.Name, "graph": g.Name, "mapper": mn},
					map[string]float64{"makespan": row[mn].Makespan})
			}
		}
		// Fidelity agreement: among same-graph mapper pairs whose
		// event-driven makespans differ by more than 10%, how often does
		// the cheap estimate order them the same way? (Near-ties are
		// excluded: either answer is acceptable there.)
		distinct, agree := 0, 0
		var relErr float64
		for i := range scores {
			if scores[i].Makespan > 0 {
				d := scores[i].Estimate - scores[i].Makespan
				if d < 0 {
					d = -d
				}
				relErr += d / scores[i].Makespan
			}
			for k := i + 1; k < len(scores); k++ {
				if scores[i].Graph != scores[k].Graph {
					continue
				}
				lo, hi := scores[i].Makespan, scores[k].Makespan
				if lo > hi {
					lo, hi = hi, lo
				}
				if lo <= 0 || (hi-lo)/lo < 0.10 {
					continue
				}
				distinct++
				simOrder := scores[i].Makespan < scores[k].Makespan
				estOrder := scores[i].Estimate < scores[k].Estimate
				if simOrder == estOrder {
					agree++
				}
			}
		}
		agreement := "-"
		vals := map[string]float64{
			"distinctPairs": float64(distinct),
			"meanAbsRelErr": relErr / float64(len(scores)),
		}
		if distinct > 0 {
			agreement = f(100 * float64(agree) / float64(distinct))
			vals["agreementPct"] = 100 * float64(agree) / float64(distinct)
		}
		fidelity.AddRow(sys.Name, fmt.Sprintf("%d", distinct), agreement, f3(relErr/float64(len(scores))))
		fidelity.Observe(map[string]string{"system": sys.Name}, vals)
	}
	board.Note("expected shape: load-balance wins compute-intensive; comm-aware wins communication-intensive on slow links; device-bound pins to device machines")
	fidelity.Note("expected shape: positive rank agreement — the cheap estimate usually picks the same winner as the event-driven engine")
	return []Table{board, fidelity}, nil
}
