// Package jann implements the rigid-job workload model of Jann,
// Pattnaik, Franke, Wang, Skovira & Riodan, "Modeling of Workload in
// MPPs" (JSSPP 1997) [38 in the paper].
//
// Jann et al. fit hyper-Erlang distributions of common order to the
// interarrival times and service times of the Cornell Theory Center
// SP2 trace, separately for each job-size range (1, 2, 3–4, 5–8, ...,
// powers-of-two buckets up to the machine size). This package
// reproduces that structure: sizes are drawn from a bucket popularity
// vector, then the bucket's own hyper-Erlang service-time distribution
// is sampled, and a size within the bucket is chosen (first element —
// the power of two — with high probability).
//
// The published paper tabulates dozens of fitted coefficients per
// trace; this implementation ships a representative parameter table
// that reproduces the qualitative moments (bucket popularity declining
// with size, service-time mean and CV growing with size, CV > 1
// throughout). The substitution is recorded in DESIGN.md.
package jann

import (
	"math"

	"parsched/internal/model"
	"parsched/internal/stats"
)

// Bucket is one job-size range with its fitted service-time
// distribution.
type Bucket struct {
	// Lo and Hi bound the sizes in the bucket (inclusive).
	Lo, Hi int
	// Weight is the bucket's relative popularity.
	Weight float64
	// Service is the hyper-Erlang service-time distribution (seconds).
	Service stats.HyperErlang
	// Pow2Prob is the probability the job takes the bucket's power of
	// two (Lo) rather than a uniform size inside the bucket.
	Pow2Prob float64
}

// Params is the bucket table.
type Params struct {
	Buckets []Bucket
}

// DefaultParams builds the bucket table for a machine of maxNodes
// processors. Buckets follow the powers of two; service times grow
// with the bucket index with CV ≈ 2–4, matching the hyper-Erlang fits'
// qualitative shape.
func DefaultParams(maxNodes int) Params {
	var ps Params
	lo := 1
	idx := 0
	for lo <= maxNodes {
		hi := lo*2 - 1
		if hi > maxNodes {
			hi = maxNodes
		}
		// Popularity declines roughly geometrically with bucket index,
		// with a bump for serial jobs.
		weight := math.Pow(0.72, float64(idx))
		if lo == 1 {
			weight *= 1.6
		}
		// Service time: two Erlang-2 branches; the long branch grows
		// with size (bigger jobs run longer at CTC).
		shortMean := 300.0 * (1 + 0.35*float64(idx))
		longMean := 7200.0 * (1 + 0.55*float64(idx))
		svc := stats.HyperErlang{
			Branches: []stats.Erlang{
				{K: 2, Lambda: 2 / shortMean},
				{K: 2, Lambda: 2 / longMean},
			},
			Probs: []float64{0.65, 0.35},
		}
		ps.Buckets = append(ps.Buckets, Bucket{
			Lo: lo, Hi: hi, Weight: weight, Service: svc, Pow2Prob: 0.7,
		})
		lo *= 2
		idx++
	}
	return ps
}

// New returns a Jann '97 model with the given bucket table.
func New(p Params) model.Model {
	s := &sampler{p: p}
	return &model.Generator{
		ModelName: "jann97",
		SampleJob: s.sample,
	}
}

// Default returns the model with the default table for cfg.MaxNodes.
// Because the table depends on the machine size, Default builds it
// lazily at first sample.
func Default() model.Model {
	s := &sampler{}
	return &model.Generator{
		ModelName: "jann97",
		SampleJob: s.sample,
	}
}

type sampler struct {
	p     Params
	built int // machine size the lazy table was built for
	cum   []float64
}

func (s *sampler) sample(rng *stats.RNG, cfg model.Config) (int, int64) {
	if len(s.p.Buckets) == 0 || (s.built != 0 && s.built != cfg.MaxNodes) {
		s.p = DefaultParams(cfg.MaxNodes)
		s.built = cfg.MaxNodes
		s.cum = nil
	}
	if s.cum == nil {
		total := 0.0
		for _, b := range s.p.Buckets {
			total += b.Weight
		}
		acc := 0.0
		s.cum = make([]float64, len(s.p.Buckets))
		for i, b := range s.p.Buckets {
			acc += b.Weight / total
			s.cum[i] = acc
		}
	}

	u := rng.Float64()
	bi := len(s.p.Buckets) - 1
	for i, c := range s.cum {
		if u < c {
			bi = i
			break
		}
	}
	b := s.p.Buckets[bi]

	size := b.Lo
	if b.Hi > b.Lo && !rng.Bool(b.Pow2Prob) {
		size = b.Lo + rng.Intn(b.Hi-b.Lo+1)
	}
	rt := b.Service.Sample(rng)
	if rt < 1 {
		rt = 1
	}
	return size, int64(rt)
}
