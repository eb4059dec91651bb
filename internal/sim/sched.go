package sim

// eventQueue is a binary min-heap of running thread units keyed by
// tu.nextAt. The block engine uses it to jump straight to the earliest
// pending issue cycle instead of scanning every active unit each cycle:
// runBlock pops the whole batch of units due at the minimum cycle, issues
// them in the rotating round-robin order, and pushes the survivors back
// with their new wakeup cycles.
//
// The heap is deliberately order-agnostic for ties — batch issue order is
// decided by Machine.sortBatch, which reproduces the legacy engine's
// positional rotation bit-for-bit.
type eventQueue struct {
	tus []*TU
}

func (q *eventQueue) Len() int { return len(q.tus) }

// min returns the unit with the earliest nextAt without removing it.
func (q *eventQueue) min() *TU { return q.tus[0] }

func (q *eventQueue) push(tu *TU) {
	q.tus = append(q.tus, tu)
	i := len(q.tus) - 1
	for i > 0 {
		p := (i - 1) / 2
		if q.tus[p].nextAt <= q.tus[i].nextAt {
			break
		}
		q.tus[p], q.tus[i] = q.tus[i], q.tus[p]
		i = p
	}
}

func (q *eventQueue) pop() *TU {
	top := q.tus[0]
	last := len(q.tus) - 1
	q.tus[0] = q.tus[last]
	q.tus[last] = nil
	q.tus = q.tus[:last]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(q.tus) {
			break
		}
		c := l
		if r < len(q.tus) && q.tus[r].nextAt < q.tus[l].nextAt {
			c = r
		}
		if q.tus[i].nextAt <= q.tus[c].nextAt {
			break
		}
		q.tus[i], q.tus[c] = q.tus[c], q.tus[i]
		i = c
	}
	return top
}
