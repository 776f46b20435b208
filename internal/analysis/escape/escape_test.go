package escape_test

import (
	"path/filepath"
	"testing"

	"parsched/internal/analysis/analysistest"
	"parsched/internal/analysis/escape"
	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/load"
)

// TestEscapeFixtures pins the finding surface: heap escapes in
// hot-path-reachable functions are reported; inlining losses, cold code
// and allow-sanctioned lines are not.
func TestEscapeFixtures(t *testing.T) {
	escape.ResetCollection()
	escape.BaselinePath = ""
	analysistest.Run(t, "testdata", escape.Analyzer, "example.com/internal/hot")
}

// TestBaselineRatchet pins the sanction/ratchet cycle on the base
// fixture: findings without a baseline, silence once sanctioned, and a
// stale report once the baseline over-sanctions.
func TestBaselineRatchet(t *testing.T) {
	fl := load.NewFixtureLoader("testdata")
	pkg, err := fl.Load("example.com/internal/base")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture type error: %v", terr)
	}
	pkgs := []*load.Package{pkg}
	analyzers := []*framework.Analyzer{escape.Analyzer}

	path := filepath.Join(t.TempDir(), "ESCAPES.baseline")
	escape.BaselinePath = path
	defer func() { escape.BaselinePath = "" }()

	// Round 1: the baseline file does not exist yet — every hot escape
	// is a finding and lands in the collected set.
	escape.ResetCollection()
	diags, _, err := framework.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("round 1: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("round 1: %d findings, want 2 (moved + escapes for x): %v", len(diags), diags)
	}
	collected := escape.Collected()
	if len(collected) != 2 {
		t.Fatalf("round 1: Collected() = %v, want 2 keys", collected)
	}
	for _, k := range collected {
		if k.Pkg != "example.com/internal/base" || k.Func != "Sanctioned" {
			t.Errorf("round 1: unexpected key %+v", k)
		}
	}

	// Sanction: -update-baseline writes the collected set.
	if err := escape.WriteBaseline(path, collected); err != nil {
		t.Fatalf("writing baseline: %v", err)
	}

	// Round 2: clean tree — findings matched by the baseline are
	// silent, and nothing is stale.
	escape.ResetCollection()
	diags, _, err = framework.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("round 2: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("round 2: %d findings, want 0 (all sanctioned): %v", len(diags), diags)
	}
	if stale := escape.Stale(); len(stale) != 0 {
		t.Fatalf("round 2: Stale() = %v, want none", stale)
	}

	// Round 3: the baseline sanctions an escape that no longer exists —
	// it shows up as stale so -update-baseline can shrink it away.
	gone := escape.Key{Pkg: "example.com/internal/base", Func: "Gone", Reason: "moved to heap: y"}
	if err := escape.WriteBaseline(path, append(collected, gone)); err != nil {
		t.Fatalf("rewriting baseline: %v", err)
	}
	escape.ResetCollection()
	diags, _, err = framework.Run(pkgs, analyzers)
	if err != nil {
		t.Fatalf("round 3: %v", err)
	}
	if len(diags) != 0 {
		t.Fatalf("round 3: %d findings, want 0: %v", len(diags), diags)
	}
	stale := escape.Stale()
	if len(stale) != 1 || stale[0] != gone {
		t.Fatalf("round 3: Stale() = %v, want exactly %+v", stale, gone)
	}
}
