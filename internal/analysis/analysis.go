// Package analysis aggregates the schedlint analyzer suite: the two
// determinism contracts (determinism, maporder) that keep the
// simulator's results reproducible, and the escape ratchet that holds
// the compiler's heap diagnostics in //schedlint:hotpath-reachable
// code to ESCAPES.baseline. The allocations the compiler cannot see (a
// growing map, an append to a nil slice) are the measured gate's:
// bench_check's allocs/op and B/op ratchet and the zero-allocation
// tests. The cmd/schedlint multichecker draws the canonical list from
// here.
//
// A check stays only while it has a catch on record that the tests
// miss or make only by chance: a wall-clock budget that cuts the
// backfill walk (determinism), a float sum in map order (maporder:
// E8's per-site slowdown recombination, which the bitwise rerun tests
// catch in about half their runs) and a new hot-path heap escape
// (escape).
package analysis

import (
	"parsched/internal/analysis/determinism"
	"parsched/internal/analysis/escape"
	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/maporder"
)

// Analyzers returns the full schedlint suite in reporting order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		determinism.Analyzer,
		maporder.Analyzer,
		escape.Analyzer,
	}
}
