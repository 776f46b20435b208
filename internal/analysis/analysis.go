// Package analysis aggregates the schedlint analyzer suite: the
// determinism contracts (determinism, maporder, handles, registry,
// floatsum) that keep the simulator's results reproducible, the
// whole-program dataflow contracts (seedflow, ownership) that keep
// replication seeds explicit and goroutine handoffs owned, and the
// escape ratchet that holds the compiler's heap diagnostics in
// //schedlint:hotpath-reachable code to ESCAPES.baseline. The
// allocations the compiler cannot see (a growing map, an append to a
// nil slice) are the measured gate's: bench_check's allocs/op and B/op
// ratchet and the zero-allocation tests. The cmd/schedlint
// multichecker and the per-analyzer tests both draw the canonical list
// from here.
package analysis

import (
	"parsched/internal/analysis/determinism"
	"parsched/internal/analysis/escape"
	"parsched/internal/analysis/floatsum"
	"parsched/internal/analysis/framework"
	"parsched/internal/analysis/handles"
	"parsched/internal/analysis/maporder"
	"parsched/internal/analysis/ownership"
	"parsched/internal/analysis/registry"
	"parsched/internal/analysis/seedflow"
)

// Analyzers returns the full schedlint suite in reporting order.
func Analyzers() []*framework.Analyzer {
	return []*framework.Analyzer{
		determinism.Analyzer,
		maporder.Analyzer,
		handles.Analyzer,
		registry.Analyzer,
		floatsum.Analyzer,
		seedflow.Analyzer,
		ownership.Analyzer,
		escape.Analyzer,
	}
}
