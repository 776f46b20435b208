package sched

import (
	"slices"
	"testing"
	"testing/quick"

	"parsched/internal/stats"
)

func TestProfileFlat(t *testing.T) {
	p := NewProfile(0, 16)
	if p.FreeAt(0) != 16 || p.FreeAt(1000000) != 16 {
		t.Fatal("flat profile wrong")
	}
	if s := p.EarliestFit(0, 100, 16); s != 0 {
		t.Fatalf("fit = %d, want 0", s)
	}
	if s := p.EarliestFit(0, 100, 17); s != -1 {
		t.Fatalf("oversized fit = %d, want -1", s)
	}
}

func TestProfileTake(t *testing.T) {
	p := NewProfile(0, 16)
	p.Take(10, 20, 8)
	if p.FreeAt(5) != 16 || p.FreeAt(10) != 8 || p.FreeAt(19) != 8 || p.FreeAt(20) != 16 {
		t.Fatalf("take wrong: %v %v %v %v", p.FreeAt(5), p.FreeAt(10), p.FreeAt(19), p.FreeAt(20))
	}
}

func TestProfileEarliestFitAroundHole(t *testing.T) {
	p := NewProfile(0, 16)
	p.Take(100, 200, 12) // only 4 free during [100,200)
	// An 8-proc 50s job fits now.
	if s := p.EarliestFit(0, 50, 8); s != 0 {
		t.Fatalf("fit = %d", s)
	}
	// An 8-proc job needing 150s starting at 0 would overlap the hole.
	if s := p.EarliestFit(0, 150, 8); s != 200 {
		t.Fatalf("fit = %d, want 200", s)
	}
	// A 4-proc job fits right through the hole.
	if s := p.EarliestFit(0, 500, 4); s != 0 {
		t.Fatalf("small fit = %d, want 0", s)
	}
	// After = 120: a 50s 8-proc job must wait for 200.
	if s := p.EarliestFit(120, 50, 8); s != 200 {
		t.Fatalf("fit after 120 = %d, want 200", s)
	}
}

func TestProfileAdjacentHoles(t *testing.T) {
	p := NewProfile(0, 16)
	p.Take(0, 100, 16)
	p.Take(100, 200, 8)
	if s := p.EarliestFit(0, 10, 8); s != 100 {
		t.Fatalf("fit = %d, want 100", s)
	}
	if s := p.EarliestFit(0, 10, 9); s != 200 {
		t.Fatalf("fit = %d, want 200", s)
	}
}

func TestProfileNegativeTransient(t *testing.T) {
	p := NewProfile(0, 4)
	p.Take(10, 20, 8) // more than capacity: fine, just no hole
	if p.FreeAt(15) != -4 {
		t.Fatalf("free = %d, want -4", p.FreeAt(15))
	}
	if s := p.EarliestFit(0, 100, 1); s != 20 {
		t.Fatalf("fit = %d, want 20", s)
	}
}

// earliestFitBranchy is the fit scan the branch-free kernel replaced,
// kept as the reference TestProfileFitProperty holds scan to: a
// too-full segment moves the candidate start to the breakpoint past it,
// and a segment with room that reaches the window's end returns it.
func earliestFitBranchy(p *Profile, after, dur int64, procs int) int64 {
	if after < p.times[0] {
		after = p.times[0]
	}
	if dur < 1 {
		dur = 1
	}
	n := len(p.times)
	start := after
	for i := p.segmentAt(start); i < n; i++ {
		if p.frees[i] < procs {
			if i+1 >= n {
				return -1 // the window would run into a too-full tail
			}
			start = p.times[i+1]
			continue
		}
		if i+1 >= n || p.times[i+1] >= start+dur {
			return start
		}
	}
	return -1
}

func TestProfileFitProperty(t *testing.T) {
	// Property, over shallow and deep random profiles with negative
	// frees: scan returns the branchy reference's start; that start is
	// feasible and neither an earlier grid start nor an earlier
	// breakpoint is; and carving the scan's hole leaves the profile
	// element-identical to EarliestFit + Take, Mutated() included, with
	// the free count lowered by procs exactly inside the window.
	maxSwitches := 0
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		origin := int64(rng.Intn(100))
		p := NewProfile(origin, 64)
		takes := 10
		if rng.Intn(2) == 0 {
			takes = 60 + rng.Intn(60) // deep: dozens of free/too-full switches
		}
		for i := 0; i < takes; i++ {
			// Some windows start before the profile (Take clamps them);
			// overlapping ones drive frees negative.
			s := origin - 50 + int64(rng.Intn(3000))
			e := s + 1 + int64(rng.Intn(200))
			p.Take(s, e, 1+rng.Intn(40))
		}
		n := len(p.times)
		var after int64
		switch k := rng.Intn(n); rng.Intn(5) {
		case 0: // before the profile
			after = origin - 1 - int64(rng.Intn(50))
		case 1: // on a breakpoint
			after = p.times[k]
		case 2: // inside a segment (the tail's, for the last one)
			after = p.times[k] + 1 + int64(rng.Intn(20))
			if k+1 < n {
				after = (p.times[k] + p.times[k+1]) / 2
			}
		case 3: // just past the profile start, inside its first segment
			after = origin + 1
		default:
			after = origin + int64(rng.Intn(3500))
		}
		var dur int64
		switch rng.Intn(5) {
		case 0: // scans as one second, carves nothing
			dur = -int64(rng.Intn(3))
		case 1: // a window from one breakpoint ends exactly on another
			k1 := rng.Intn(n)
			k2 := k1 + rng.Intn(n-k1)
			dur = p.times[k2] - p.times[k1]
		case 2: // reaches the tail
			dur = 3000 + int64(rng.Intn(3000))
		default:
			dur = 1 + int64(rng.Intn(300))
		}
		procs := rng.Intn(66) // 0 carves nothing; 65 exceeds the tail

		h := p.scan(after, dur, procs)
		want := earliestFitBranchy(p, after, dur, procs)
		if h.start != want || p.EarliestFit(after, dur, procs) != want {
			t.Logf("seed %d: scan(%d, %d, %d) = %d, branchy reference %d", seed, after, dur, procs, h.start, want)
			return false
		}
		lo, d := max(after, p.times[0]), max(dur, 1)
		last := n - 1
		if want >= 0 {
			last = h.ei
		}
		switches := 0
		for i := p.segmentAt(lo); i < last; i++ {
			if (p.frees[i] < procs) != (p.frees[i+1] < procs) {
				switches++
			}
		}
		maxSwitches = max(maxSwitches, switches)
		if want < 0 {
			return procs > p.frees[n-1]
		}
		if !p.fits(want, want+d, procs) {
			return false
		}
		for s := lo; s < want; s += 7 {
			if p.fits(s, s+d, procs) {
				return false
			}
		}
		for _, s := range p.times {
			if s >= lo && s < want && p.fits(s, s+d, procs) {
				return false
			}
		}
		fused, ref := p.clone(), p.clone()
		fused.takeHole(h, dur, procs)
		ref.Take(want, want+dur, procs)
		// Take and takeHole share the carve, so check it pointwise too:
		// breakpoints stay strictly increasing, and the free count drops
		// by procs exactly inside the window.
		for i := 1; i < len(fused.times); i++ {
			if fused.times[i] <= fused.times[i-1] {
				return false
			}
		}
		for s := p.times[0]; s < p.times[n-1]+dur+50; s += 3 {
			carved := 0
			if s >= want && s < want+dur {
				carved = procs
			}
			if fused.FreeAt(s) != p.FreeAt(s)-carved {
				return false
			}
		}
		if !slices.Equal(fused.times, ref.times) || !slices.Equal(fused.frees, ref.frees) ||
			fused.Mutated() != ref.Mutated() {
			t.Logf("seed %d: carve over scan(%d, %d, %d) = %+v left %v %v (mutated %v), Take left %v %v (mutated %v)",
				seed, after, dur, procs, h, fused.times, fused.frees, fused.Mutated(), ref.times, ref.frees, ref.Mutated())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if maxSwitches < 24 {
		t.Fatalf("deepest scan crossed %d free/too-full switches, want dozens", maxSwitches)
	}
}

func TestBuildProfileFromContext(t *testing.T) {
	m := newMock(16)
	// A running job: 8 procs until t=100.
	m.free = 8
	m.running = []RunningJob{{Job: job(1, 0, 8, 100), Size: 8, Start: 0, ExpEnd: 100}}
	// A future outage takes 4 procs over [50, 150).
	m.windows = []Window{{Start: 50, End: 150, Procs: 4}}
	p := BuildProfile(m)
	if p.FreeAt(0) != 8 {
		t.Fatalf("free now = %d", p.FreeAt(0))
	}
	if p.FreeAt(60) != 4 {
		t.Fatalf("free at 60 = %d", p.FreeAt(60))
	}
	if p.FreeAt(120) != 12 { // job back (+8), outage still on (-4)
		t.Fatalf("free at 120 = %d", p.FreeAt(120))
	}
	if p.FreeAt(200) != 16 {
		t.Fatalf("free at 200 = %d", p.FreeAt(200))
	}
}

func TestBuildProfileOngoingOutage(t *testing.T) {
	m := newMock(16)
	m.now = 100
	m.free = 12 // 4 nodes already down
	m.windows = []Window{{Start: 50, End: 200, Procs: 4}}
	p := BuildProfile(m)
	if p.FreeAt(100) != 12 {
		t.Fatalf("free now = %d (must not double-count ongoing outage)", p.FreeAt(100))
	}
	if p.FreeAt(200) != 16 {
		t.Fatalf("free after outage = %d", p.FreeAt(200))
	}
}

func TestBuildProfileOverdueJob(t *testing.T) {
	m := newMock(8)
	m.now = 500
	m.free = 0
	m.running = []RunningJob{{Job: job(1, 0, 8, 100), Size: 8, Start: 0, ExpEnd: 100}}
	p := BuildProfile(m)
	// Overdue job treated as releasing at now+1.
	if p.FreeAt(500) != 0 || p.FreeAt(501) != 8 {
		t.Fatalf("overdue handling wrong: %d %d", p.FreeAt(500), p.FreeAt(501))
	}
}
