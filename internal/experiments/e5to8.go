package experiments

import (
	"fmt"

	"parsched/internal/core"
	"parsched/internal/meta"
	"parsched/internal/outage"
	"parsched/internal/predict"
	"parsched/internal/sched"
	"parsched/internal/sim"
	"parsched/internal/stats"
)

// E5Outages reproduces Section 2.2 "Including outage information": the
// same workload and outage log run under an outage-oblivious scheduler
// (classic EASY, which restarts killed jobs) and the outage-aware
// variant (easy+win, which drains before announced windows). Failures
// are sudden; maintenance is announced a day ahead, exactly the two
// announcement modes of the proposed outage format.
func E5Outages(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	w, err := substrateWorkload(cfg, cfg.fixedLoad(0.7))
	if err != nil {
		return nil, err
	}
	horizon := w.Jobs[len(w.Jobs)-1].Submit + 7*86400

	t := Table{
		ID:     "E5",
		Title:  "outage impact: oblivious (easy) vs aware (easy+win)",
		Header: []string{"mtbf", "sched", "meanWait(s)", "meanBSLD", "restarts", "lostWork(proc-h)", "unfinished"},
	}
	noteLoadShortfall(&t, cfg, w, cfg.fixedLoad(0.7))
	type scenario struct {
		name string
		mtbf float64 // machine-level mean time between node failures; 0 = none
	}
	scenarios := []scenario{{"none", 0}, {"48h", 48 * 3600}, {"12h", 12 * 3600}}
	if cfg.Quick {
		scenarios = []scenario{{"none", 0}, {"12h", 12 * 3600}}
	}
	scheds, err := cfg.schedList([]string{"easy", "easy+win"})
	if err != nil {
		return nil, err
	}
	for _, sc := range scenarios {
		gcfg := outage.GeneratorConfig{
			Nodes:             int64(cfg.Nodes),
			Horizon:           horizon,
			MaintenanceEvery:  7 * 86400,
			MaintenanceLength: 4 * 3600,
			MaintenanceLead:   86400,
		}
		if sc.mtbf > 0 {
			gcfg.MTBF = stats.Exponential{Lambda: 1 / sc.mtbf}
			gcfg.Repair = stats.LogNormal{Mu: 7.5, Sigma: 0.7} // ~30 min repairs
		}
		olog := outage.Generate(gcfg, cfg.Seed+7)
		for _, sn := range scheds {
			r, err := runOn(cfg, w, sn, sim.Options{Outages: olog})
			if err != nil {
				return nil, err
			}
			t.AddRow(sc.name, sn, f0(r.Wait.Mean), f(r.BSLD.Mean),
				fmt.Sprintf("%d", r.Restarts),
				f(float64(r.LostWork)/3600),
				fmt.Sprintf("%d", r.Unfinished))
			t.Observe(map[string]string{"mtbf": sc.name, "sched": sn}, map[string]float64{
				"meanWait": r.Wait.Mean, "meanBSLD": r.BSLD.Mean,
				"restarts": float64(r.Restarts), "lostWorkProcH": float64(r.LostWork) / 3600,
				"unfinished": float64(r.Unfinished),
			})
		}
	}
	t.Note("expected shape: with announced maintenance only (mtbf none) the aware scheduler eliminates kills entirely; sudden failures remain unavoidable for both")
	return []Table{t}, nil
}

// E6Reservations reproduces Section 3's "simple approach may be an
// extension of backfilling": advance reservations consume a growing
// fraction of the machine, and the local jobs are scheduled either by
// a reservation-aware backfiller (easy+win) or an oblivious one. The
// aware scheduler keeps reservations feasible (high grant rate) at
// some cost in local slowdown; the oblivious one tramples them.
func E6Reservations(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	load := cfg.fixedLoad(0.6)
	w, err := substrateWorkload(cfg, load)
	if err != nil {
		return nil, err
	}
	span := w.Jobs[len(w.Jobs)-1].Submit

	t := Table{
		ID:     "E6",
		Title:  fmt.Sprintf("reservation load vs backfilling (%s, load %.2g)", substrateLabel(cfg), load),
		Header: []string{"resvFrac", "sched", "grant%", "localBSLD", "util"},
	}
	noteLoadShortfall(&t, cfg, w, load)
	fracs := []float64{0, 0.1, 0.2, 0.4}
	if cfg.Quick {
		fracs = []float64{0.2}
	}
	scheds, err := cfg.schedList([]string{"easy", "easy+win"})
	if err != nil {
		return nil, err
	}
	for _, frac := range fracs {
		resvs := periodicReservations(frac, cfg.Nodes, span, 4*3600)
		for _, sn := range scheds {
			s, err := sched.New(sn)
			if err != nil {
				return nil, fmt.Errorf("scheduler %q: %w", sn, err)
			}
			res, err := sim.Run(w, s, sim.Options{Reservations: resvs})
			if err != nil {
				return nil, fmt.Errorf("simulating %q: %w", sn, err)
			}
			r := cfg.report(res.Scheduler, res.Workload, res.Outcomes, w.MaxNodes)
			granted := 0
			for _, ro := range res.Reservations {
				if ro.Granted {
					granted++
				}
			}
			grantPct := 100.0
			if len(res.Reservations) > 0 {
				grantPct = 100 * float64(granted) / float64(len(res.Reservations))
			}
			t.AddRow(f(frac), sn, f(grantPct), f(r.BSLD.Mean), f3(r.Utilization))
			t.Observe(map[string]string{"resvFrac": f(frac), "sched": sn}, map[string]float64{
				"grantPct": grantPct, "localBSLD": r.BSLD.Mean, "util": r.Utilization,
			})
		}
	}
	t.Note("expected shape: easy+win grants ~all reservations; oblivious easy fails grants as resvFrac grows; local slowdown rises with resvFrac")
	return []Table{t}, nil
}

// periodicReservations builds a reservation stream consuming roughly
// frac of machine capacity: every `period` seconds, a reservation for
// frac*nodes processors lasting half the period, announced a period in
// advance.
func periodicReservations(frac float64, nodes int, span int64, period int64) []sched.Reservation {
	if frac <= 0 {
		return nil
	}
	procs := int(frac * float64(nodes))
	if procs < 1 {
		procs = 1
	}
	var out []sched.Reservation
	id := int64(1)
	for start := period; start+period/2 < span; start += period {
		// The reservation calendar is published upfront (Announced 0),
		// like a maintenance calendar: the aware scheduler can plan
		// around every window.
		out = append(out, sched.Reservation{
			ID: id, Procs: procs, Start: start, End: start + period/2,
		})
		id++
	}
	return out
}

// E7Prediction reproduces Section 3.1: queue-wait predictors are
// evaluated on a real scheduling trace (accuracy table), then a 4-site
// grid compares meta-scheduler policies that use no information
// (random), queue state (least-work), and predictions (predicted-wait).
func E7Prediction(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()

	// Part 1: predictor accuracy on a single busy machine.
	accLoad := cfg.fixedLoad(0.95)
	w, err := substrateWorkload(cfg, accLoad)
	if err != nil {
		return nil, err
	}
	s, err := sched.New("easy")
	if err != nil {
		return nil, fmt.Errorf("scheduler easy: %w", err)
	}
	res, err := sim.Run(w, s, sim.Options{})
	if err != nil {
		return nil, fmt.Errorf("simulating easy: %w", err)
	}
	jobsByID := map[int64]*core.Job{}
	for _, j := range w.Jobs {
		jobsByID[j.ID] = j
	}
	acc := Table{
		ID:     "E7/accuracy",
		Title:  fmt.Sprintf("wait-time predictor accuracy (easy, %s, load %.2g)", substrateLabel(cfg), accLoad),
		Header: []string{"predictor", "MAE(s)", "RMSE(s)", "MAE/meanWait"},
	}
	noteLoadShortfall(&acc, cfg, w, accLoad)
	preds := []predict.Predictor{
		predict.Zero{}, predict.NewRecent(25), predict.NewEWMA(0.2), predict.NewCategory(),
	}
	for _, p := range preds {
		ev := predict.NewEvaluator(p)
		for _, o := range res.Outcomes {
			if o.Start < 0 {
				continue
			}
			ev.Feed(jobsByID[o.JobID], o.Submit, o.Wait())
		}
		acc.AddRow(p.Name(), f0(ev.MAE()), f0(ev.RMSE()), f3(ev.NormalizedMAE()))
		acc.Observe(map[string]string{"predictor": p.Name()}, map[string]float64{
			"mae": ev.MAE(), "rmse": ev.RMSE(), "normMAE": ev.NormalizedMAE(),
		})
	}
	acc.Note("expected shape: category templates beat the no-information baseline; global averages barely help — queue waits are 'still relatively inaccurate' to predict (Section 3.1)")

	// Part 2: meta-scheduling gain from information.
	gain := Table{
		ID:     "E7/meta",
		Title:  "meta-scheduler policies on a 4-site grid (meta jobs' waits)",
		Header: []string{"policy", "meanWait(s)", "p90Wait(s)", "lost"},
	}
	metaJobs := metaJobStream(cfg, 200)
	for _, pol := range []func() meta.Policy{
		func() meta.Policy { return meta.NewRandomPolicy(cfg.Seed) },
		func() meta.Policy { return meta.LeastWorkPolicy{} },
		func() meta.Policy { return meta.PredictedWaitPolicy{} },
	} {
		g, err := buildGrid(cfg)
		if err != nil {
			return nil, err
		}
		policy := pol()
		g.SubmitMeta(metaJobs, policy)
		g.Run(0)
		outs, lost := g.MetaOutcomes()
		r := cfg.report(policy.Name(), "grid", outs, g.TotalNodes())
		gain.AddRow(policy.Name(), f0(r.Wait.Mean), f0(r.Wait.P90), fmt.Sprintf("%d", lost))
		gain.Observe(map[string]string{"policy": policy.Name()}, map[string]float64{
			"meanWait": r.Wait.Mean, "p90Wait": r.Wait.P90, "lost": float64(lost),
		})
	}
	gain.Note("expected shape: least-work and predicted-wait cut meta-job waits versus random")
	return []Table{acc, gain}, nil
}

// buildGrid assembles the standard 4-site grid with skewed local loads.
func buildGrid(cfg Config) (*meta.Grid, error) {
	jobsPerSite := cfg.Jobs / 4
	loads := []float64{0.3, 0.6, 0.9, 1.2}
	var specs []meta.SiteSpec
	for i, load := range loads {
		lw, nodes, err := siteWorkload(cfg, i, jobsPerSite, cfg.Nodes/2, load)
		if err != nil {
			return nil, err
		}
		specs = append(specs, meta.SiteSpec{
			Name:      fmt.Sprintf("site%d", i),
			Nodes:     nodes,
			Scheduler: sched.NewEASY(),
			Local:     lw,
			Predictor: predict.NewRecent(25),
		})
	}
	g, err := meta.NewGrid(specs)
	if err != nil {
		return nil, fmt.Errorf("building grid: %w", err)
	}
	return g, nil
}

// metaJobStream builds n meta jobs spread over the grid's active span.
func metaJobStream(cfg Config, n int) []*core.Job {
	if cfg.Quick {
		n /= 4
	}
	rng := stats.NewRNG(cfg.Seed + 99)
	var jobs []*core.Job
	t := int64(3600)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(1200)) + 60
		size := 1 << rng.Intn(5) // 1..16
		rt := int64(300 + rng.Intn(5400))
		jobs = append(jobs, &core.Job{
			ID: int64(i + 1), Submit: t, Size: size, Runtime: rt,
			Estimate: rt * 2, User: 1 + int64(rng.Intn(8)),
		})
	}
	return jobs
}

// E8CoAllocation reproduces Section 3.1's co-allocation requirement:
// requests for simultaneous capacity across 1, 2, or 4 sites are
// negotiated via advance reservations on reservation-aware locals.
// More parts mean more negotiation constraints: later common starts,
// but the grant rate stays high because the locals honour windows.
func E8CoAllocation(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	t := Table{
		ID:     "E8",
		Title:  "co-allocation across sites (easy+win locals)",
		Header: []string{"parts", "granted%", "meanDelay(s)", "p90Delay(s)", "localBSLD"},
	}
	nReq := 40
	if cfg.Quick {
		nReq = 10
	}
	for _, parts := range []int{1, 2, 4} {
		g, err := buildCoAllocGrid(cfg)
		if err != nil {
			return nil, err
		}
		reqs := coAllocStream(cfg, nReq, parts)
		g.SubmitCoAlloc(reqs)
		g.Run(0)

		cas := g.CoAllocations()
		granted := 0
		var delays []float64
		for _, ca := range cas {
			if ca.Granted {
				granted++
			}
			if d := ca.Delay(); d >= 0 {
				delays = append(delays, float64(d))
			}
		}
		ds := stats.Summarize(delays)
		// Recombine the per-site means in site order: a float sum in
		// map order rounds differently from run to run.
		var localBSLD float64
		var localN int
		locals := g.LocalOutcomes()
		for _, site := range g.Sites {
			r := cfg.report("", "", locals[site.Name], cfg.Nodes/2)
			if r.Finished > 0 {
				localBSLD += r.BSLD.Mean * float64(r.Finished)
				localN += r.Finished
			}
		}
		if localN > 0 {
			localBSLD /= float64(localN)
		}
		t.AddRow(fmt.Sprintf("%d", parts),
			f(100*float64(granted)/float64(len(cas))),
			f0(ds.Mean), f0(ds.P90), f(localBSLD))
		t.Observe(map[string]string{"parts": fmt.Sprintf("%d", parts)}, map[string]float64{
			"grantedPct": 100 * float64(granted) / float64(len(cas)),
			"meanDelay":  ds.Mean, "p90Delay": ds.P90, "localBSLD": localBSLD,
		})
	}
	t.Note("expected shape: grant rate stays high (aware locals); delay grows with parts (harder simultaneous holes); local slowdown rises with co-allocation pressure")
	return []Table{t}, nil
}

func buildCoAllocGrid(cfg Config) (*meta.Grid, error) {
	jobsPerSite := cfg.Jobs / 8
	var specs []meta.SiteSpec
	for i := 0; i < 4; i++ {
		lw, nodes, err := siteWorkload(cfg, i, jobsPerSite, cfg.Nodes/2, 0.5)
		if err != nil {
			return nil, err
		}
		specs = append(specs, meta.SiteSpec{
			Name:      fmt.Sprintf("site%d", i),
			Nodes:     nodes,
			Scheduler: sched.NewEASYWindows(),
			Local:     lw,
		})
	}
	g, err := meta.NewGrid(specs)
	if err != nil {
		return nil, fmt.Errorf("building co-allocation grid: %w", err)
	}
	return g, nil
}

func coAllocStream(cfg Config, n, parts int) []meta.CoAllocRequest {
	rng := stats.NewRNG(cfg.Seed + 123)
	var reqs []meta.CoAllocRequest
	t := int64(7200)
	for i := 0; i < n; i++ {
		t += int64(rng.Intn(3600)) + 300
		reqs = append(reqs, meta.CoAllocRequest{
			ID: int64(i + 1), Submit: t,
			Procs:    parts * (4 + rng.Intn(cfg.Nodes/8)),
			Duration: int64(600 + rng.Intn(3600)),
			Parts:    parts,
		})
	}
	return reqs
}
