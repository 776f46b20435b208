// Package cluster models the parallel machine a machine scheduler
// controls: a set of identical nodes, job allocations, and node up/down
// state driven by the outage log.
//
// The machine is deliberately simple — distributed-memory space
// slicing, one job per node — which is the machine model of the IBM SP
// generation the paper describes ("it is possible for a node to drop
// offline, but the system continues to operate. Any job running on that
// node would have to be restarted, but it has no effect on any other
// running jobs").
//
// Counting, allocation and release are the per-event hot path of the
// simulator, so the machine keeps its state in 64-node words and never
// touches a node on its own there: a free-node bitset, a down-node
// bitset, and cached up/free/in-use counters adjusted by popcount. An
// allocation takes the lowest-index free nodes, and an owner's
// allocation is a short list of spans, its nodes within one word each,
// so claiming or freeing costs O(words spanned), not O(nodes taken).
// Which owner holds a given node matters only when that
// node changes state (a node going down kills only the job on it), so
// that question is answered by scanning the owner table, once per node
// transition and never per job. The original O(N) scans are kept as
// scan* functions behind the debugCheck flag, which tests enable to
// cross-validate every cached figure after every mutation.
package cluster

import (
	"fmt"
	"math/bits"
	"slices"

	"parsched/internal/debugchecks"
)

// NoOwner marks a free node.
const NoOwner int64 = 0

// debugCheck, when true, makes every mutating operation cross-validate
// the cached counters and the free set against a from-scratch scan.
// Defaults to the debugchecks build tag (so `go test -tags debugchecks`
// validates every machine in the whole test load); tests can also flip
// it at runtime via EnableDebugChecks. Off in production builds because
// it restores the O(N)-per-event cost the cache exists to remove.
var debugCheck = debugchecks.Enabled

// EnableDebugChecks toggles scan-based cross-validation of the cached
// state after every mutation. Returns the previous setting. Not safe
// for concurrent use with running machines — flip it only around
// single-threaded test bodies.
func EnableDebugChecks(on bool) bool {
	prev := debugCheck
	debugCheck = on
	return prev
}

// bit is node i's bit within its 64-node word, i>>6.
func bit(i int) uint64 { return 1 << (uint(i) & 63) }

// has reports whether node i is set in a node bitset.
func has(set []uint64, i int) bool { return set[i>>6]&bit(i) != 0 }

// span is one piece of an owner's allocation: its nodes within one
// 64-node word.
type span struct {
	word int
	mask uint64
}

// Machine is a space-sliced parallel computer.
type Machine struct {
	// owners maps each owner to its allocation, in the order allocate
	// took it: words ascending.
	owners map[int64][]span
	// free has bit i set iff node i is up and unowned.
	free []uint64
	// down has bit i set iff node i is down. A down node may still be
	// in its owner's spans until the owner is released (the simulator
	// kills the job) or the node comes back up.
	down []uint64

	nodes int // nodes, up or down

	// Cached aggregates, maintained on every state transition.
	up    int // nodes not down
	inUse int // up nodes with an owner
	nFree int // up nodes without an owner

	// spanPool recycles the span lists of released owners, so the
	// allocate/release cycle of a long replay stops allocating a fresh
	// list per job start.
	spanPool [][]span
	// scratch holds the owned-node bitset the reference scans rebuild,
	// allocated once so that debug checks allocate nothing.
	scratch []uint64
}

// New creates a machine of n nodes, all up and free.
//
//schedlint:coldpath once-per-run constructor
func New(n int) *Machine {
	words := (n + 63) / 64
	bitsets := make([]uint64, 3*words) // free, down and scratch, in one allocation
	m := &Machine{
		owners:  map[int64][]span{},
		free:    bitsets[:words:words],
		down:    bitsets[words : 2*words : 2*words],
		scratch: bitsets[2*words:],
		nodes:   n,
		up:      n,
		nFree:   n,
	}
	for i := range m.free {
		m.free[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		m.free[words-1] = bit(r) - 1 // the last word's spare bits stay clear
	}
	return m
}

// checkNode panics unless i is a node of the machine: a node past its
// end would otherwise land in the last word's spare bits.
func (m *Machine) checkNode(i int) {
	if uint(i) >= uint(m.nodes) {
		panic("cluster: node outside the machine")
	}
}

// Total returns the number of nodes, up or down.
func (m *Machine) Total() int { return m.nodes }

// Up returns the number of functional (not down) nodes.
func (m *Machine) Up() int {
	m.check()
	return m.up
}

// Free returns the number of nodes that are up and unallocated.
func (m *Machine) Free() int {
	m.check()
	return m.nFree
}

// InUse returns the number of allocated (and up) nodes.
func (m *Machine) InUse() int {
	m.check()
	return m.inUse
}

// Allocate assigns the count lowest-index free nodes to owner and
// returns their indices, ascending. It returns false, and allocates
// nothing, if fewer than count nodes are free. Owner must be nonzero
// and must not already hold an allocation.
//
//schedlint:hotpath entry point: allocation kernel, also driven directly by tests and meta
func (m *Machine) Allocate(owner int64, count int) ([]int, bool) {
	spans, ok := m.allocate(owner, count)
	if !ok {
		return nil, false
	}
	return nodeList(spans), true
}

// Claim is Allocate for callers that do not need the node list (the
// simulator's job starts, which only track the owner): same selection,
// same bookkeeping, no list.
func (m *Machine) Claim(owner int64, count int) bool {
	_, ok := m.allocate(owner, count)
	return ok
}

// allocate performs the allocation and returns the stored span list.
func (m *Machine) allocate(owner int64, count int) ([]span, bool) {
	if owner == NoOwner {
		panic("cluster: allocation with zero owner")
	}
	if _, dup := m.owners[owner]; dup {
		panic(fmt.Sprintf("cluster: owner %d already holds an allocation", owner))
	}
	if count <= 0 {
		panic("cluster: non-positive allocation size")
	}
	if m.Free() < count {
		return nil, false
	}
	// Walk the free set upward, taking the lowest-index nodes first, a
	// whole word, or its lowest set bits, per step. The span list comes
	// from the ReleaseQuiet pool when one is available; allocation only
	// happens while the pool warms up (or when a pooled list's capacity
	// is outgrown by a more fragmented allocation). A fresh list has
	// room for eight spans, as many as an allocation on a 512-node
	// machine can take.
	var spans []span
	if n := len(m.spanPool); n > 0 {
		spans = m.spanPool[n-1][:0]
		m.spanPool[n-1] = nil
		m.spanPool = m.spanPool[:n-1]
	} else {
		spans = make([]span, 0, 8)
	}
	need := count
	for wi := 0; wi < len(m.free) && need > 0; wi++ {
		w := m.free[wi]
		if w == 0 {
			continue
		}
		k := bits.OnesCount64(w)
		if k > need {
			w, k = lowestBits(w, need), need
		}
		m.free[wi] &^= w
		spans = append(spans, span{word: wi, mask: w})
		need -= k
	}
	if need > 0 {
		panic("cluster: free count disagrees with the free set")
	}
	m.nFree -= count
	m.inUse += count
	m.owners[owner] = spans
	m.check()
	return spans, true
}

// lowestBits returns the lowest n set bits of w, which has more than n.
func lowestBits(w uint64, n int) uint64 {
	var out uint64
	for ; n > 0; n-- {
		low := w & -w
		out |= low
		w ^= low
	}
	return out
}

// nodeList expands an allocation into its node indices, ascending, with
// one allocation.
func nodeList(spans []span) []int {
	n := 0
	for _, s := range spans {
		n += bits.OnesCount64(s.mask)
	}
	//schedlint:allow escape the list is the caller's to keep; the simulator claims and releases through Claim and ReleaseQuiet, which build none
	out := make([]int, 0, n)
	for _, s := range spans {
		for w := s.mask; w != 0; w &= w - 1 {
			out = append(out, s.word<<6|bits.TrailingZeros64(w))
		}
	}
	return out
}

// Release frees all nodes held by owner and returns them, ascending.
// Releasing an unknown owner returns nil. Use ReleaseQuiet when the list
// is not needed.
func (m *Machine) Release(owner int64) []int {
	nodes := m.NodesOf(owner)
	m.ReleaseQuiet(owner)
	return nodes
}

// ReleaseQuiet is Release for callers that ignore the node list (the
// simulator's job terminations, which only track owners): same
// bookkeeping, no list, and the owner's span list is recycled into the
// allocation pool. It reports whether the owner held anything.
//
//schedlint:hotpath every job termination and reservation expiry funnels through here
func (m *Machine) ReleaseQuiet(owner int64) bool {
	spans, ok := m.owners[owner]
	if !ok {
		return false
	}
	// Each span's nodes go back to the free set, minus those that are
	// down: they were already counted out of inUse when they went down,
	// and become free only when they come back up.
	for _, s := range spans {
		freed := s.mask &^ m.down[s.word]
		m.free[s.word] |= freed
		k := bits.OnesCount64(freed)
		m.nFree += k
		m.inUse -= k
	}
	delete(m.owners, owner)
	m.spanPool = append(m.spanPool, spans) // bounded by the peak number of concurrent owners
	m.check()
	return true
}

// NodesOf returns the nodes held by owner, ascending (nil if none).
func (m *Machine) NodesOf(owner int64) []int {
	spans, ok := m.owners[owner]
	if !ok {
		return nil
	}
	return nodeList(spans)
}

// holder finds the owner whose allocation includes node i and the index
// of the span holding it; NoOwner if the node is unowned. It scans the
// owner table: at most one owner holds a node, so the map's iteration
// order cannot change the answer.
func (m *Machine) holder(i int) (int64, int) {
	word, b := i>>6, bit(i)
	for o, spans := range m.owners {
		for k, s := range spans {
			if s.word == word && s.mask&b != 0 {
				return o, k
			}
		}
	}
	return NoOwner, -1
}

// OwnerOf returns the owner of node i (NoOwner if free).
func (m *Machine) OwnerOf(i int) int64 {
	m.checkNode(i)
	o, _ := m.holder(i)
	return o
}

// SetDown marks node i down and returns the owner that was evicted
// (NoOwner if the node was free). The owner's other nodes remain
// allocated; the caller (the simulator) decides whether to kill the
// job and release the rest.
func (m *Machine) SetDown(i int) int64 {
	m.checkNode(i)
	w, b := i>>6, bit(i)
	if m.down[w]&b != 0 {
		return NoOwner
	}
	m.down[w] |= b
	m.up--
	if m.free[w]&b != 0 {
		m.free[w] &^= b
		m.nFree--
		m.check()
		return NoOwner
	}
	// Up and not free: the node is owned.
	m.inUse--
	m.check()
	o, _ := m.holder(i)
	return o
}

// SetUp marks node i functional again. Any stale ownership is cleared
// (the job was killed when the node went down).
func (m *Machine) SetUp(i int) {
	m.checkNode(i)
	w, b := i>>6, bit(i)
	wasDown := m.down[w]&b != 0
	if !wasDown && m.free[w]&b != 0 {
		m.check()
		return
	}
	if wasDown {
		m.down[w] &^= b
		m.up++
	}
	if o, k := m.holder(i); o != NoOwner {
		m.dropNode(o, k, b)
		if !wasDown {
			// The node was up and allocated; it is now up and free.
			m.inUse--
		}
	}
	m.free[w] |= b
	m.nFree++
	m.check()
}

// dropNode removes node bit b from span k of owner o, deleting the span
// and then the owner once they hold nothing.
func (m *Machine) dropNode(o int64, k int, b uint64) {
	spans := m.owners[o]
	spans[k].mask &^= b
	if spans[k].mask != 0 {
		return
	}
	spans = slices.Delete(spans, k, k+1)
	if len(spans) > 0 {
		m.owners[o] = spans
		return
	}
	delete(m.owners, o)
	m.spanPool = append(m.spanPool, spans) // bounded by the peak number of concurrent owners
}

// Owners returns the active owners, ascending.
func (m *Machine) Owners() []int64 {
	out := make([]int64, 0, len(m.owners))
	for o := range m.owners {
		out = append(out, o)
	}
	slices.Sort(out)
	return out
}

// ---------------------------------------------------------------------
// Reference scans: node-by-node recomputations from the state's source
// of truth (the down bitset and the owner table), retained to
// cross-validate the cached counters and the free set (check, Validate,
// and the equivalence property tests).

// ownedBits rebuilds the owned-node bitset from the owner table into
// the machine's scratch buffer.
func (m *Machine) ownedBits() []uint64 {
	owned := m.scratch
	clear(owned)
	for _, spans := range m.owners {
		for _, s := range spans {
			owned[s.word] |= s.mask
		}
	}
	return owned
}

// scanUp recomputes Up from scratch.
func (m *Machine) scanUp() int {
	n := 0
	for i := range m.nodes {
		if !has(m.down, i) {
			n++
		}
	}
	return n
}

// scanFree recomputes Free from scratch.
func (m *Machine) scanFree() int {
	owned := m.ownedBits()
	n := 0
	for i := range m.nodes {
		if !has(m.down, i) && !has(owned, i) {
			n++
		}
	}
	return n
}

// scanInUse recomputes InUse from scratch.
func (m *Machine) scanInUse() int {
	owned := m.ownedBits()
	n := 0
	for i := range m.nodes {
		if !has(m.down, i) && has(owned, i) {
			n++
		}
	}
	return n
}

// scanAllocate recomputes the allocation Allocate would choose, the
// count lowest-index free nodes (nil if infeasible), without mutating.
func (m *Machine) scanAllocate(count int) []int {
	owned := m.ownedBits()
	var chosen []int
	for i := 0; i < m.nodes && len(chosen) < count; i++ {
		if !has(m.down, i) && !has(owned, i) {
			chosen = append(chosen, i)
		}
	}
	if len(chosen) < count {
		return nil
	}
	return chosen
}

// check cross-validates the cached state against the reference scans
// when debugCheck is enabled. It panics on divergence: a counter drift
// is a simulation-correctness bug, not a recoverable condition.
func (m *Machine) check() {
	if !debugCheck {
		return
	}
	if err := m.validateCached(); err != nil {
		panic("cluster: " + err.Error())
	}
}

// validateCached compares every cached aggregate — counters, the free
// set's population, per-node free bits — against a from-scratch
// recomputation. Shared by check and Validate.
func (m *Machine) validateCached() error {
	if got := m.scanUp(); got != m.up {
		return fmt.Errorf("cached up=%d, scan=%d", m.up, got)
	}
	if got := m.scanInUse(); got != m.inUse {
		return fmt.Errorf("cached inUse=%d, scan=%d", m.inUse, got)
	}
	if got := m.scanFree(); got != m.nFree {
		return fmt.Errorf("cached free=%d, scan=%d", m.nFree, got)
	}
	pop := 0
	for _, w := range m.free {
		pop += bits.OnesCount64(w)
	}
	// With every free node's bit set (below), bits totalling exactly the
	// free count leave no stray bit past the machine's last node.
	if pop != m.nFree {
		return fmt.Errorf("free set holds %d nodes, cached free=%d", pop, m.nFree)
	}
	owned := m.ownedBits()
	for i := range m.nodes {
		free := !has(m.down, i) && !has(owned, i)
		if got := has(m.free, i); got != free {
			return fmt.Errorf("node %d free-bit=%v, state free=%v", i, got, free)
		}
	}
	return nil
}

// Validate checks internal consistency (every owner holds at least one
// node, no node has two owners, every span lies inside the machine,
// cached counters match a from-scratch recomputation). It is used by
// property tests.
func (m *Machine) Validate() error {
	seen := make([]uint64, len(m.down))
	for o, spans := range m.owners {
		if len(spans) == 0 {
			return fmt.Errorf("owner %d has an empty allocation", o)
		}
		for _, s := range spans {
			if s.mask == 0 {
				return fmt.Errorf("owner %d has an empty span in word %d", o, s.word)
			}
			if shared := seen[s.word] & s.mask; shared != 0 {
				return fmt.Errorf("owner %d holds node %d, which another owner holds", o, s.word<<6|bits.TrailingZeros64(shared))
			}
			seen[s.word] |= s.mask
			if last := s.word<<6 | (63 - bits.LeadingZeros64(s.mask)); last >= m.nodes {
				return fmt.Errorf("owner %d holds node %d of a %d-node machine", o, last, m.nodes)
			}
		}
	}
	return m.validateCached()
}
