package sim

// slabBlock is the number of elements a slab allocates at a time.
const slabBlock = 256

// slab is simulator-owned storage for per-job records (streamed job
// copies, outcomes) that the simulator recycles once it is done with
// them. get draws on the free list first and on a block of slabBlock
// fresh elements only when the list is empty, so a run allocates one
// block per 256 elements of peak in-flight population, not one per job.
// Until done is set, put keeps every element: the free list starts at
// one block's capacity on the first free and grows by append beyond
// that, and it can never hold more elements than the blocks have
// handed out, so it stops growing once it can hold the peak in-flight
// population. A run whose jobs in flight rise and fall again and again
// therefore allocates nothing after its first swing to the peak.
type slab[T any] struct {
	block []T  // unused tail of the current block
	free  []*T // freed elements, most recently freed last
	// done is set once nothing will draw on the slab again (the replay's
	// stream has ended). put then leaves freed elements to the garbage
	// collector, so a run's final drain does not grow a free list that
	// is never drawn from.
	done bool
}

// get returns storage for one element. Its contents are stale: the
// caller overwrites every field.
//
//schedlint:allow escape the block refill below, which the compiler also reports here for each instantiation: one allocation per 256 elements of peak in-flight population
func (s *slab[T]) get() *T {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		return p
	}
	if len(s.block) == 0 {
		//schedlint:allow escape slab refill: one allocation per 256 elements of peak in-flight population
		s.block = make([]T, slabBlock)
	}
	p := &s.block[0]
	s.block = s.block[1:]
	return p
}

// put hands p back for reuse. Only call once nothing reads p any more.
//
//schedlint:allow escape the free list below, which the compiler also reports here for each instantiation: one block on the first free, then grown only with the peak in-flight population
func (s *slab[T]) put(p *T) {
	if s.done {
		return
	}
	if s.free == nil {
		//schedlint:allow escape free list sized at one block on the first free; it grows only with the peak in-flight population
		s.free = make([]*T, 0, slabBlock)
	}
	s.free = append(s.free, p)
}
