// Package cluster models the parallel machine a machine scheduler
// controls: a set of nodes with per-node memory configuration
// (configuration heterogeneity in the paper's Section 4.1 taxonomy),
// job allocations, and node up/down state driven by the outage log.
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
// touches a node on its own there: free-node bitsets bucketed by
// distinct memory value (ascending), a down-node bitset, and cached
// up/free/in-use counters adjusted by popcount. An owner's allocation
// is a short list of spans, each one memory class's nodes within one
// word, so claiming or freeing costs O(words spanned + classes), not
// O(nodes taken). Which owner holds a given node matters only when that
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
	"sort"

	"parsched/internal/debugchecks"
)

// NoOwner marks a free node.
const NoOwner int64 = 0

// debugCheck, when true, makes every mutating operation cross-validate
// the cached counters and free lists against a from-scratch scan.
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

// memClass is the free list for one distinct memory value: a bitset of
// free node indices (free = up and unowned) plus its population count.
type memClass struct {
	mem   int64
	free  []uint64 // bit i set iff node i is free and in this class
	count int
}

// span is one piece of an owner's allocation: the nodes of one memory
// class within one 64-node word.
type span struct {
	class, word int32
	mask        uint64
}

// Machine is a space-sliced parallel computer.
type Machine struct {
	// owners maps each owner to its allocation, in the order allocate
	// took it: classes ascending, words ascending within a class.
	owners map[int64][]span
	// down has bit i set iff node i is down. A down node may still be
	// in its owner's spans until the owner is released (the simulator
	// kills the job) or the node comes back up.
	down []uint64

	// Cached aggregates, maintained on every state transition.
	up    int // nodes not down
	inUse int // up nodes with an owner
	nFree int // up nodes without an owner

	// classes are the per-memory-value free lists, ascending by mem.
	// classOf maps a node index to its (immutable) class index; a
	// node's memory is its class's.
	classes []memClass
	classOf []int

	// spanPool recycles the span lists of released owners, so the
	// allocate/release cycle of a long replay stops allocating a fresh
	// list per job start.
	spanPool [][]span
	// scratch holds the owned-node bitset the reference scans rebuild,
	// allocated once so that debug checks allocate nothing.
	scratch []uint64
}

// New creates a homogeneous machine of n nodes with memPerNode KB each.
//
//schedlint:coldpath once-per-run constructor
func New(n int, memPerNode int64) *Machine {
	mems := make([]int64, n)
	for i := range mems {
		mems[i] = memPerNode
	}
	return NewHeterogeneous(mems)
}

// NewHeterogeneous creates a machine whose node i has memPerNode[i] KB:
// the "nodes configured with different amounts of resources" case of
// Section 4.1.
//
//schedlint:coldpath once-per-run constructor
func NewHeterogeneous(memPerNode []int64) *Machine {
	n := len(memPerNode)
	words := (n + 63) / 64
	bitsets := make([]uint64, 2*words) // down and scratch, in one allocation
	m := &Machine{
		owners:  map[int64][]span{},
		down:    bitsets[:words:words],
		classOf: make([]int, n),
		scratch: bitsets[words:],
	}
	distinct := append([]int64(nil), memPerNode...)
	sort.Slice(distinct, func(a, b int) bool { return distinct[a] < distinct[b] })
	distinct = dedupe(distinct)
	m.classes = make([]memClass, len(distinct))
	for ci, mem := range distinct {
		m.classes[ci] = memClass{mem: mem, free: make([]uint64, words)}
	}
	for i, mem := range memPerNode {
		ci := sort.Search(len(distinct), func(k int) bool { return distinct[k] >= mem })
		m.classOf[i] = ci
		m.classes[ci].free[i>>6] |= bit(i)
		m.classes[ci].count++
	}
	m.up = n
	m.nFree = n
	return m
}

func dedupe(sorted []int64) []int64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// firstClass returns the index of the smallest memory class satisfying
// minMem.
func (m *Machine) firstClass(minMem int64) int {
	// Unconstrained requests (and homogeneous machines) start at class 0;
	// skipping the closure-driven search keeps the allocation fast path
	// branch-only.
	if len(m.classes) > 0 && minMem <= m.classes[0].mem {
		return 0
	}
	return sort.Search(len(m.classes), func(k int) bool { return m.classes[k].mem >= minMem })
}

// Total returns the number of nodes, up or down.
func (m *Machine) Total() int { return len(m.classOf) }

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

// FreeWithMem returns the number of up, unallocated nodes with at least
// minMem KB of memory.
func (m *Machine) FreeWithMem(minMem int64) int {
	m.check()
	if minMem <= 0 {
		return m.nFree
	}
	n := 0
	for ci := m.firstClass(minMem); ci < len(m.classes); ci++ {
		n += m.classes[ci].count
	}
	return n
}

// InUse returns the number of allocated (and up) nodes.
func (m *Machine) InUse() int {
	m.check()
	return m.inUse
}

// CanAllocate reports whether count nodes with minMem memory are free.
func (m *Machine) CanAllocate(count int, minMem int64) bool {
	return m.FreeWithMem(minMem) >= count
}

// Allocate assigns count free nodes with at least minMem memory to
// owner and returns their indices, ascending. Nodes with the smallest
// adequate memory are chosen first, preserving large-memory nodes for
// jobs that need them (best fit); ties break toward lower node indices.
// It returns false, and allocates nothing, if the request cannot be
// satisfied. Owner must be nonzero and must not already hold an
// allocation.
//
//schedlint:hotpath entry point: allocation kernel, also driven directly by tests and meta
func (m *Machine) Allocate(owner int64, count int, minMem int64) ([]int, bool) {
	spans, ok := m.allocate(owner, count, minMem)
	if !ok {
		return nil, false
	}
	return nodeList(spans), true
}

// Claim is Allocate for callers that do not need the node list (the
// simulator's job starts, which only track the owner): same selection,
// same bookkeeping, no list.
func (m *Machine) Claim(owner int64, count int, minMem int64) bool {
	_, ok := m.allocate(owner, count, minMem)
	return ok
}

// allocate performs the allocation and returns the stored span list.
func (m *Machine) allocate(owner int64, count int, minMem int64) ([]span, bool) {
	if owner == NoOwner {
		panic("cluster: allocation with zero owner")
	}
	if _, dup := m.owners[owner]; dup {
		panic(fmt.Sprintf("cluster: owner %d already holds an allocation", owner))
	}
	if count <= 0 {
		panic("cluster: non-positive allocation size")
	}
	if m.FreeWithMem(minMem) < count {
		return nil, false
	}
	// Walk the free lists from the smallest adequate class upward,
	// taking lowest-index nodes first within each class — the same
	// (Mem, index) order the original scan-and-sort produced — a whole
	// word, or its lowest set bits, per step. The span list comes from
	// the ReleaseQuiet pool when one is available; allocation only
	// happens while the pool warms up (or when a pooled list's capacity
	// is outgrown by a more fragmented allocation). A fresh list has
	// room for eight spans, as many as a one-class allocation on a
	// 512-node machine can take.
	var spans []span
	if n := len(m.spanPool); n > 0 {
		spans = m.spanPool[n-1][:0]
		m.spanPool[n-1] = nil
		m.spanPool = m.spanPool[:n-1]
	} else {
		spans = make([]span, 0, 8)
	}
	need := count
	for ci := m.firstClass(minMem); ci < len(m.classes) && need > 0; ci++ {
		c := &m.classes[ci]
		if c.count == 0 {
			continue
		}
		taken := 0
		for wi := 0; wi < len(c.free) && need > 0; wi++ {
			w := c.free[wi]
			if w == 0 {
				continue
			}
			k := bits.OnesCount64(w)
			if k > need {
				w, k = lowestBits(w, need), need
			}
			c.free[wi] &^= w
			spans = append(spans, span{class: int32(ci), word: int32(wi), mask: w})
			taken += k
			need -= k
		}
		c.count -= taken
		m.nFree -= taken
	}
	if need > 0 {
		panic("cluster: free-list count disagrees with free-list contents")
	}
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
			out = append(out, int(s.word)<<6|bits.TrailingZeros64(w))
		}
	}
	// Spans run class by class, so only an allocation served from
	// several classes can come out unsorted.
	if !slices.IsSorted(out) {
		slices.Sort(out)
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
	// Each span's nodes go back to its class's free list, minus those
	// that are down: they were already counted out of inUse when they
	// went down, and become free only when they come back up.
	for _, s := range spans {
		freed := s.mask &^ m.down[s.word]
		m.classes[s.class].free[s.word] |= freed
		k := bits.OnesCount64(freed)
		m.classes[s.class].count += k
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
	word, b := int32(i>>6), bit(i)
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
	_ = m.classOf[i] // bounds check: a node outside the machine panics
	o, _ := m.holder(i)
	return o
}

// MemOf returns the memory of node i.
func (m *Machine) MemOf(i int) int64 { return m.classes[m.classOf[i]].mem }

// SetDown marks node i down and returns the owner that was evicted
// (NoOwner if the node was free). The owner's other nodes remain
// allocated; the caller (the simulator) decides whether to kill the
// job and release the rest.
func (m *Machine) SetDown(i int) int64 {
	// classOf also bounds-checks i: a node past the machine's end must
	// panic, not land in the last word's spare bits.
	c := &m.classes[m.classOf[i]]
	w, b := i>>6, bit(i)
	if m.down[w]&b != 0 {
		return NoOwner
	}
	m.down[w] |= b
	m.up--
	if c.free[w]&b != 0 {
		c.free[w] &^= b
		c.count--
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
	c := &m.classes[m.classOf[i]] // also bounds-checks i, as in SetDown
	w, b := i>>6, bit(i)
	wasDown := m.down[w]&b != 0
	if !wasDown && c.free[w]&b != 0 {
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
	c.free[w] |= b
	c.count++
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------
// Reference scans: node-by-node recomputations from the state's source
// of truth (the down bitset and the owner table), retained to
// cross-validate the cached counters and free lists (check, Validate,
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
	for i := range m.classOf {
		if !has(m.down, i) {
			n++
		}
	}
	return n
}

// scanFreeWithMem recomputes FreeWithMem from scratch.
func (m *Machine) scanFreeWithMem(minMem int64) int {
	owned := m.ownedBits()
	n := 0
	for i := range m.classOf {
		if !has(m.down, i) && !has(owned, i) && m.MemOf(i) >= minMem {
			n++
		}
	}
	return n
}

// scanInUse recomputes InUse from scratch.
func (m *Machine) scanInUse() int {
	owned := m.ownedBits()
	n := 0
	for i := range m.classOf {
		if !has(m.down, i) && has(owned, i) {
			n++
		}
	}
	return n
}

// scanBestFit recomputes the allocation the original scan-and-sort
// implementation would choose (nil if infeasible), without mutating.
func (m *Machine) scanBestFit(count int, minMem int64) []int {
	owned := m.ownedBits()
	var candidates []int
	for i := range m.classOf {
		if !has(m.down, i) && !has(owned, i) && m.MemOf(i) >= minMem {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) < count {
		return nil
	}
	sort.Slice(candidates, func(a, b int) bool {
		if m.MemOf(candidates[a]) != m.MemOf(candidates[b]) {
			return m.MemOf(candidates[a]) < m.MemOf(candidates[b])
		}
		return candidates[a] < candidates[b]
	})
	chosen := append([]int(nil), candidates[:count]...)
	sort.Ints(chosen)
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

// validateCached compares every cached aggregate — counters, per-class
// free-list populations, per-node free bits — against a from-scratch
// recomputation. Shared by check and Validate.
func (m *Machine) validateCached() error {
	if got := m.scanUp(); got != m.up {
		return fmt.Errorf("cached up=%d, scan=%d", m.up, got)
	}
	if got := m.scanInUse(); got != m.inUse {
		return fmt.Errorf("cached inUse=%d, scan=%d", m.inUse, got)
	}
	if got := m.scanFreeWithMem(0); got != m.nFree {
		return fmt.Errorf("cached free=%d, scan=%d", m.nFree, got)
	}
	total := 0
	for ci := range m.classes {
		c := &m.classes[ci]
		pop := 0
		for _, w := range c.free {
			pop += bits.OnesCount64(w)
		}
		if pop != c.count {
			return fmt.Errorf("class %d (mem %d) count=%d, popcount=%d", ci, c.mem, c.count, pop)
		}
		total += pop
	}
	// With every free node's bit set in its own class (below), bits
	// totalling exactly the free count leave no stray bit in another
	// class or past the machine's last node.
	if total != m.nFree {
		return fmt.Errorf("class free lists hold %d nodes, cached free=%d", total, m.nFree)
	}
	owned := m.ownedBits()
	for i, ci := range m.classOf {
		free := !has(m.down, i) && !has(owned, i)
		if got := has(m.classes[ci].free, i); got != free {
			return fmt.Errorf("node %d free-bit=%v, state free=%v", i, got, free)
		}
	}
	return nil
}

// Validate checks internal consistency (every owner holds at least one
// node, no node has two owners, every span lies inside the machine and
// its memory class, cached counters match a from-scratch
// recomputation). It is used by property tests.
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
				return fmt.Errorf("owner %d holds node %d, which another owner holds", o, int(s.word)<<6|bits.TrailingZeros64(shared))
			}
			seen[s.word] |= s.mask
			for w := s.mask; w != 0; w &= w - 1 {
				i := int(s.word)<<6 | bits.TrailingZeros64(w)
				if i >= m.Total() {
					return fmt.Errorf("owner %d holds node %d of a %d-node machine", o, i, m.Total())
				}
				if m.classOf[i] != int(s.class) {
					return fmt.Errorf("owner %d holds node %d of class %d in a span of class %d", o, i, m.classOf[i], s.class)
				}
			}
		}
	}
	return m.validateCached()
}
