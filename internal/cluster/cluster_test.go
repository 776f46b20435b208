package cluster

import (
	"slices"
	"testing"
	"testing/quick"

	"parsched/internal/stats"
)

func TestNewCounts(t *testing.T) {
	m := New(16)
	if m.Total() != 16 || m.Up() != 16 || m.Free() != 16 || m.InUse() != 0 {
		t.Fatalf("fresh machine: total=%d up=%d free=%d inuse=%d",
			m.Total(), m.Up(), m.Free(), m.InUse())
	}
}

func TestAllocateRelease(t *testing.T) {
	m := New(8)
	nodes, ok := m.Allocate(42, 3)
	if !ok || len(nodes) != 3 {
		t.Fatalf("allocate failed: %v %v", nodes, ok)
	}
	if m.Free() != 5 || m.InUse() != 3 {
		t.Fatalf("after alloc: free=%d inuse=%d", m.Free(), m.InUse())
	}
	for _, n := range nodes {
		if m.OwnerOf(n) != 42 {
			t.Fatalf("node %d owner = %d", n, m.OwnerOf(n))
		}
	}
	got := m.Release(42)
	if len(got) != 3 || m.Free() != 8 {
		t.Fatalf("release returned %v, free=%d", got, m.Free())
	}
	if m.Release(42) != nil {
		t.Fatal("double release should return nil")
	}
}

func TestAllocateInsufficient(t *testing.T) {
	m := New(4)
	if _, ok := m.Allocate(1, 5); ok {
		t.Fatal("allocation beyond machine size succeeded")
	}
	if m.Free() != 4 {
		t.Fatal("failed allocation must not leak nodes")
	}
}

func TestAllocateDuplicateOwnerPanics(t *testing.T) {
	m := New(4)
	m.Allocate(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate owner")
		}
	}()
	m.Allocate(1, 1)
}

func TestAllocateZeroOwnerPanics(t *testing.T) {
	m := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero owner")
		}
	}()
	m.Allocate(NoOwner, 1)
}

func TestSetDownEvictsOwner(t *testing.T) {
	m := New(4)
	nodes, _ := m.Allocate(7, 2)
	evicted := m.SetDown(nodes[0])
	if evicted != 7 {
		t.Fatalf("evicted = %d, want 7", evicted)
	}
	if m.Up() != 3 {
		t.Fatalf("up = %d", m.Up())
	}
	// Second SetDown on same node is a no-op.
	if again := m.SetDown(nodes[0]); again != NoOwner {
		t.Fatalf("second SetDown returned %d", again)
	}
}

func TestSetDownFreeNode(t *testing.T) {
	m := New(4)
	if ev := m.SetDown(0); ev != NoOwner {
		t.Fatalf("evicted %d from free node", ev)
	}
	if m.Free() != 3 {
		t.Fatalf("free = %d", m.Free())
	}
}

func TestSetUpClearsStaleOwnership(t *testing.T) {
	m := New(4)
	nodes, _ := m.Allocate(7, 2)
	m.SetDown(nodes[0])
	// Simulator would kill job 7 and release; but even without release,
	// SetUp must clear the stale owner.
	m.SetUp(nodes[0])
	if m.OwnerOf(nodes[0]) != NoOwner {
		t.Fatal("stale owner survived SetUp")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDownNodesNotAllocatable(t *testing.T) {
	m := New(2)
	m.SetDown(0)
	nodes, ok := m.Allocate(5, 1)
	if !ok {
		t.Fatal("one node still up")
	}
	if nodes[0] != 1 {
		t.Fatalf("allocated down node: %v", nodes)
	}
	if _, ok := m.Allocate(6, 1); ok {
		t.Fatal("no nodes left")
	}
}

func TestOwnersSorted(t *testing.T) {
	m := New(8)
	m.Allocate(5, 1)
	m.Allocate(2, 1)
	m.Allocate(9, 1)
	owners := m.Owners()
	if len(owners) != 3 || owners[0] != 2 || owners[1] != 5 || owners[2] != 9 {
		t.Fatalf("owners = %v", owners)
	}
}

func TestNodesOfReturnsCopy(t *testing.T) {
	m := New(4)
	m.Allocate(1, 2)
	nodes := m.NodesOf(1)
	nodes[0] = 99
	if m.NodesOf(1)[0] == 99 {
		t.Fatal("NodesOf exposed internal state")
	}
}

// TestCountersMatchScansProperty drives randomized
// allocate/release/SetDown/SetUp sequences and asserts after every step
// that the cached counters and the free set equal a from-scratch
// recomputation, and that Allocate picks exactly the nodes a scan for
// the lowest-index free nodes picks. Every machine size ends in a
// partial 64-node word, and the larger ones take allocations across
// several words. A node that goes down may stay with its owner, and
// come back up before the owner is released: what the simulator does
// when one batch of outage events both fails and repairs a node, ahead
// of killing the victim. debugCheck additionally cross-validates
// inside every mutation.
func TestCountersMatchScansProperty(t *testing.T) {
	defer EnableDebugChecks(EnableDebugChecks(true))
	for _, nodes := range []int{48, 130, 200} {
		f := func(seed int64) bool {
			rng := stats.NewRNG(seed)
			m := New(nodes)
			// live is an ordered list so owner selection below is a pure
			// function of the seed (map iteration would not replay).
			var live []int64
			drop := func(o int64) {
				for k, v := range live {
					if v == o {
						live = append(live[:k], live[k+1:]...)
						return
					}
				}
			}
			// held lists down nodes whose owner was not released when they
			// went down.
			var held []int
			next := int64(1)
			for step := 0; step < 400; step++ {
				switch rng.Intn(6) {
				case 0, 1: // allocate
					count := 1 + rng.Intn(nodes/3)
					want := m.scanAllocate(count)
					got, ok := m.Allocate(next, count)
					if (want == nil) == ok {
						t.Logf("step %d: feasibility diverged (scan %v, got %v)", step, want, ok)
						return false
					}
					if ok {
						if !slices.Equal(got, want) {
							t.Logf("step %d: chose %v, scan chose %v", step, got, want)
							return false
						}
						live = append(live, next)
					}
					next++
				case 2: // release a random live owner
					if len(live) > 0 {
						k := rng.Intn(len(live))
						want := m.NodesOf(live[k])
						if got := m.Release(live[k]); !slices.Equal(got, want) {
							t.Logf("step %d: released %v, owner held %v", step, got, want)
							return false
						}
						live = append(live[:k], live[k+1:]...)
					}
				case 3: // take a node down; kill and release the victim, or not yet
					n := rng.Intn(nodes)
					if evicted := m.SetDown(n); evicted != NoOwner {
						if rng.Intn(2) == 0 {
							m.Release(evicted)
							drop(evicted)
						} else {
							held = append(held, n)
						}
					}
				case 4: // bring a random node up (may already be up)
					m.SetUp(rng.Intn(nodes))
				case 5: // bring a held node up before its owner is released
					if len(held) > 0 {
						k := rng.Intn(len(held))
						n := held[k]
						held = append(held[:k], held[k+1:]...)
						o := m.OwnerOf(n)
						m.SetUp(n)
						if m.OwnerOf(n) != NoOwner || slices.Contains(m.NodesOf(o), n) {
							t.Logf("step %d: node %d still held by %d after SetUp", step, n, o)
							return false
						}
					}
				}
				if err := m.Validate(); err != nil {
					t.Logf("step %d: %v", step, err)
					return false
				}
				if m.Up() != m.scanUp() || m.InUse() != m.scanInUse() ||
					m.Free() != m.scanFree() {
					t.Logf("step %d: counters diverged from scans", step)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("%d nodes: %v", nodes, err)
		}
	}
}

// TestNodeOutsideMachinePanics: SetDown, SetUp and OwnerOf reject a
// node outside the machine. On 130 nodes, node 130 falls inside the
// last word's spare bits, so only an explicit bound catches it.
func TestNodeOutsideMachinePanics(t *testing.T) {
	m := New(130)
	for _, i := range []int{130, -1} {
		for _, c := range []struct {
			name string
			op   func()
		}{
			{"SetDown", func() { m.SetDown(i) }},
			{"SetUp", func() { m.SetUp(i) }},
			{"OwnerOf", func() { m.OwnerOf(i) }},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) on a %d-node machine did not panic", c.name, i, m.Total())
					}
				}()
				c.op()
			}()
		}
	}
	if err := m.Validate(); err != nil || m.Up() != 130 || m.Free() != 130 {
		t.Fatalf("rejected calls changed the machine: %v, up=%d free=%d", err, m.Up(), m.Free())
	}
}

// TestSetUpWhileUpClearsAllocation pins the historical (surprising)
// SetUp contract: calling SetUp on an up, allocated node evicts the
// allocation — counters must follow.
func TestSetUpWhileUpClearsAllocation(t *testing.T) {
	defer EnableDebugChecks(EnableDebugChecks(true))
	m := New(4)
	nodes, _ := m.Allocate(7, 2)
	m.SetUp(nodes[0])
	if m.OwnerOf(nodes[0]) != NoOwner {
		t.Fatal("SetUp on an up node must clear ownership")
	}
	if m.Free() != 3 || m.InUse() != 1 || m.Up() != 4 {
		t.Fatalf("free=%d inuse=%d up=%d", m.Free(), m.InUse(), m.Up())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocationInvariantProperty drives random allocate/release/outage
// sequences and checks machine consistency plus the capacity invariant
// (free + in-use + down-free == total).
func TestAllocationInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		m := New(32)
		live := map[int64]bool{}
		next := int64(1)
		down := map[int]bool{}
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0: // allocate
				count := 1 + rng.Intn(8)
				if _, ok := m.Allocate(next, count); ok {
					live[next] = true
				}
				next++
			case 1: // release a random live owner
				for o := range live {
					m.Release(o)
					delete(live, o)
					break
				}
			case 2: // take a node down
				n := rng.Intn(32)
				if evicted := m.SetDown(n); evicted != NoOwner {
					// Simulator contract: kill and release the victim.
					m.Release(evicted)
					delete(live, evicted)
				}
				down[n] = true
			case 3: // bring a node up
				for n := range down {
					m.SetUp(n)
					delete(down, n)
					break
				}
			}
			if err := m.Validate(); err != nil {
				t.Logf("step %d: %v", step, err)
				return false
			}
			if m.Free() < 0 || m.InUse() < 0 || m.Up() > m.Total() {
				return false
			}
			if m.Free()+m.InUse() != m.Up() {
				t.Logf("free %d + inuse %d != up %d", m.Free(), m.InUse(), m.Up())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
