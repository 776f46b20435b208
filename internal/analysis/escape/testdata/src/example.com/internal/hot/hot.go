// Package hot is the escape-analyzer fixture: an annotated root whose
// reachable helpers leak a pointer and allocate a closure (reported), a
// cold function with the same escape (ignored), a go:noinline root and
// a root too large to inline (not reported: inlining is not heap work),
// and a sanctioned escape behind an allow directive (suppressed).
package hot

// Hot is the annotated root.
//
//schedlint:hotpath
func Hot(n int) int {
	p := leakPtr(n)
	c := counter()
	return *p + c()
}

func leakPtr(n int) *int {
	x := n // want "moved to heap: x" "escapes to heap: x"
	return &x
}

func counter() func() int {
	n := 0                              // want "moved to heap: n" "escapes to heap: n"
	return func() int { n++; return n } // want "escapes to heap: func literal"
}

//go:noinline
//schedlint:hotpath
func Pinned(n int) int { return n + 1 }

// Exempt carries a line-local sanction: same escape as leakPtr, no
// finding.
//
//schedlint:hotpath
func Exempt(n int) *int {
	x := n //schedlint:allow escape benchmarked, single allocation per call is sanctioned
	return &x
}

// Cold has the same escape as leakPtr but is unreachable from any
// hot-path root, so the analyzer says nothing about it.
func Cold(n int) *int {
	x := n
	return &x
}
