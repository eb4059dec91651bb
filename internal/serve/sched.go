package serve

import (
	"sync"

	"cyclops/internal/job"
	"cyclops/internal/obs"
)

// task is one queued simulation request, carrying its trace context:
// the request's root span (parent for the runner's stage spans) and the
// queue_wait span, started at submit and ended at dispatch so the span
// tree shows exactly how long the request sat behind other clients.
type task struct {
	// res is the request's resolved spec and key (the handler's
	// canonicalize stage); the worker runs it without resolving again.
	res job.Resolved
	// parent is the request's root span; the worker parents all run
	// stages under it.
	parent *obs.ActiveSpan
	// queued is the queue_wait span (nil when untraced); its End at
	// dispatch yields the queue-wait duration.
	queued *obs.ActiveSpan
	// done closes once data/info/err are final.
	done chan struct{}
	data []byte
	info job.RunInfo
	err  error
	// queueWait is the measured queue_wait duration in seconds and
	// runSeconds the runner's share (dispatch to done).
	queueWait  float64
	runSeconds float64
	// depth is the number of already-pending tasks observed at submit.
	depth int
}

// scheduler dispatches queued tasks to a bounded worker set with
// per-client fairness: each client has its own FIFO, and a round-robin
// ring over the clients picks the next task, so one client flooding the
// queue delays its own requests, not everyone else's. Cache hits never
// enter the queue (the handler answers them directly); only simulator
// executions compete here.
type scheduler struct {
	runner *job.Runner

	// observeQueueWait, when set, receives each task's queue_wait span
	// at dispatch (the server feeds the queue-wait histogram).
	observeQueueWait func(obs.Span)

	mu      sync.Mutex
	queues  map[string]*clientQueue
	ring    []*clientQueue // only clients with pending tasks
	next    int            // ring index served next
	pending int
	busy    int
	workers int
	limit   int // max queued tasks across all clients
}

type clientQueue struct {
	id    string
	tasks []*task
}

func newScheduler(runner *job.Runner, workers, limit int) *scheduler {
	return &scheduler{
		runner:  runner,
		queues:  make(map[string]*clientQueue),
		workers: workers,
		limit:   limit,
	}
}

// submit enqueues t for client. When the queue is full it refuses and
// reports the pending count, from which the server derives a
// latency-informed Retry-After estimate.
func (s *scheduler) submit(client string, t *task) (ok bool, pending int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending >= s.limit {
		return false, s.pending
	}
	t.depth = s.pending
	t.queued = t.parent.Child("queue_wait")
	q := s.queues[client]
	if q == nil {
		q = &clientQueue{id: client}
		s.queues[client] = q
		s.ring = append(s.ring, q)
	}
	q.tasks = append(q.tasks, t)
	s.pending++
	s.dispatchLocked()
	return true, s.pending
}

// dispatchLocked starts tasks while workers are free. Every queue in
// the ring is non-empty (emptied queues are pruned immediately), so the
// ring cursor always points at the next client due a turn.
func (s *scheduler) dispatchLocked() {
	for s.busy < s.workers && s.pending > 0 {
		idx := s.next % len(s.ring)
		q := s.ring[idx]
		t := q.tasks[0]
		q.tasks = q.tasks[1:]
		if len(q.tasks) == 0 {
			delete(s.queues, q.id)
			s.ring = append(s.ring[:idx], s.ring[idx+1:]...)
			if len(s.ring) > 0 {
				s.next = idx % len(s.ring)
			} else {
				s.next = 0
			}
		} else {
			s.next = (idx + 1) % len(s.ring)
		}
		s.pending--
		s.busy++
		go s.run(t)
	}
}

// run executes one task and recycles the worker slot.
func (s *scheduler) run(t *task) {
	if t.queued != nil {
		sp := t.queued.End()
		t.queueWait = sp.Dur.Seconds()
		if s.observeQueueWait != nil {
			s.observeQueueWait(sp)
		}
	}
	started := s.runner.Tracer.Now()
	t.data, t.info, t.err = s.runner.RunResolvedTraced(&t.res, t.parent)
	t.runSeconds = s.runner.Tracer.Now().Sub(started).Seconds()
	close(t.done)
	s.mu.Lock()
	s.busy--
	s.dispatchLocked()
	s.mu.Unlock()
}

// load reports the pending and busy counts for the metrics export.
func (s *scheduler) load() (pending, busy int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.busy
}
