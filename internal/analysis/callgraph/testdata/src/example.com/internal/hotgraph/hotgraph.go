// Package hotgraph is the reachability fixture: one annotated root
// whose hot set must include a statically called chain, a closure body,
// an interface method resolved by dispatch, and generic code reached
// through its instantiations — and must exclude code behind a
// constant-false guard, a method with the wrong signature, and a cold
// caller of hot code.
package hotgraph

type doer interface{ Do(n int) int }

type adder struct{ total int }

// Do is reached from Root through the interface dispatch on doer.
func (a *adder) Do(n int) int { return leaf(n) + a.total }

type misfit struct{}

// Do has the wrong signature for doer and stays cold.
func (misfit) Do(s string) string { return s }

const debug = false

// Root is the annotated hot-path entry point.
//
//schedlint:hotpath
func Root(d doer) int {
	if debug {
		coldDebug()
	}
	f := func(n int) int { return viaClosure(n) }
	return d.Do(step(1)) + f(2)
}

// step reaches a method of a generic type and an implicitly
// instantiated generic function.
func step(n int) int { return (&box[int]{v: n}).get() + ident(1) }

// leaf reaches generic functions through explicit instantiations with
// one and with two type arguments.
func leaf(n int) int { return 2*twice[int](n)[0] + pick[int, string](0, "") }

func viaClosure(n int) int { return n }

type box[T any] struct{ v T }

func (b *box[T]) get() T { return b.v }

func ident[T any](v T) T { return v }

func twice[T any](v T) [2]T { return [2]T{v, v} }

func pick[A, B any](a A, _ B) A { return a }

func coldDebug() {}

func coldOrphan() int { return step(3) }

var _ = coldOrphan
var _ doer = (*adder)(nil)
var _ = misfit{}
