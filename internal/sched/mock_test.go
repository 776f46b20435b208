package sched

import (
	"fmt"
	"sort"

	"parsched/internal/core"
)

// mockContext is a hand-driven Context for unit-testing schedulers
// without the full simulator: the test controls time, finishes jobs
// explicitly, and the mock tracks capacity.
type mockContext struct {
	now     int64
	total   int
	free    int
	running []RunningJob
	started []int64 // IDs in start order
	shared  map[int64]float64
	windows []Window
	resv    []Window
	// onStart, when set, runs after every Start.
	onStart func(j *core.Job)
	// runEpoch and subEpoch are the RunEpoch and QueueEpoch stamps:
	// Start and finish advance the first, submit the second.
	runEpoch, subEpoch uint64
}

func newMock(total int) *mockContext {
	return &mockContext{total: total, free: total, shared: map[int64]float64{}}
}

func (m *mockContext) Now() int64      { return m.now }
func (m *mockContext) TotalProcs() int { return m.total }
func (m *mockContext) FreeProcs() int  { return m.free }

func (m *mockContext) CanStart(j *core.Job, size int) bool {
	return size <= m.free
}

func (m *mockContext) Start(j *core.Job, size int) {
	if size > m.free {
		panic(fmt.Sprintf("mock: start job %d size %d with %d free", j.ID, size, m.free))
	}
	m.free -= size
	m.runEpoch++
	m.running = append(m.running, RunningJob{
		Job: j, Size: size, Start: m.now, ExpEnd: m.now + j.EstimateOrRuntime(),
	})
	sort.Slice(m.running, func(a, b int) bool { return m.running[a].ExpEnd < m.running[b].ExpEnd })
	m.started = append(m.started, j.ID)
	if m.onStart != nil {
		m.onStart(j)
	}
}

func (m *mockContext) Running() []RunningJob { return append([]RunningJob(nil), m.running...) }

func (m *mockContext) RunningEpoch() uint64 { return m.runEpoch }
func (m *mockContext) SubmitEpoch() uint64  { return m.subEpoch }

func (m *mockContext) Estimate(j *core.Job) int64 { return j.EstimateOrRuntime() }

func (m *mockContext) Outages() []Window      { return m.windows }
func (m *mockContext) Reservations() []Window { return m.resv }

func (m *mockContext) StartShared(j *core.Job, rate float64) {
	m.shared[j.ID] = rate
	m.started = append(m.started, j.ID)
}

func (m *mockContext) SetRate(j *core.Job, rate float64) { m.shared[j.ID] = rate }

// submit delivers j to the scheduler, advancing the submit stamp as
// the simulator does for every OnSubmit it dispatches.
func (m *mockContext) submit(s Scheduler, j *core.Job) {
	m.subEpoch++
	s.OnSubmit(m, j)
}

// finish completes a running job and notifies the scheduler.
func (m *mockContext) finish(s Scheduler, id int64) {
	for i, r := range m.running {
		if r.Job.ID == id {
			m.free += r.Size
			m.runEpoch++
			m.running = append(m.running[:i], m.running[i+1:]...)
			s.OnFinish(m, r.Job)
			return
		}
	}
	panic(fmt.Sprintf("mock: finish unknown job %d", id))
}

// advance moves the clock.
func (m *mockContext) advance(t int64) {
	if t < m.now {
		panic("mock: time going backwards")
	}
	m.now = t
}

// stampless hands its scheduler every callback's context with the
// RunEpoch, WindowEpoch and QueueEpoch stamps hidden, so nothing keyed
// by them may be reused: every profile build merges from scratch and
// the ledger never commits.
type stampless struct{ Scheduler }

func (s stampless) OnSubmit(ctx Context, j *core.Job) {
	s.Scheduler.OnSubmit(struct{ Context }{ctx}, j)
}

func (s stampless) OnFinish(ctx Context, j *core.Job) {
	s.Scheduler.OnFinish(struct{ Context }{ctx}, j)
}

func (s stampless) OnChange(ctx Context) { s.Scheduler.OnChange(struct{ Context }{ctx}) }

// job builds a rigid test job.
func job(id int64, submit int64, size int, runtime int64) *core.Job {
	return &core.Job{ID: id, Submit: submit, Size: size, Runtime: runtime, User: 1}
}

// jobEst builds a job with an explicit estimate.
func jobEst(id int64, submit int64, size int, runtime, est int64) *core.Job {
	j := job(id, submit, size, runtime)
	j.Estimate = est
	return j
}

// startedSet returns the IDs started so far as a set.
func (m *mockContext) startedSet() map[int64]bool {
	s := map[int64]bool{}
	for _, id := range m.started {
		s[id] = true
	}
	return s
}
