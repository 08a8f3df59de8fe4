package pipeline

// instDeque is a FIFO of in-flight instructions (front-end queues,
// reorder buffers) backed by one reusable slice. The naive idiom these
// replaced — pop via q = q[1:], push via append — slides the window off
// the front of the backing array, so every push past the capacity
// reallocates even though the queue's length is bounded; the deque
// instead memmoves the live window back to the front when it hits the
// end, which amortises to O(1) per operation with zero steady-state
// allocations.
type instDeque struct {
	buf  []*DynInst
	head int
}

// newInstDeque returns a deque that holds up to n entries without
// growing.
func newInstDeque(n int) instDeque { return instDeque{buf: make([]*DynInst, 0, n)} }

func (q *instDeque) len() int          { return len(q.buf) - q.head }
func (q *instDeque) front() *DynInst   { return q.buf[q.head] }
func (q *instDeque) at(i int) *DynInst { return q.buf[q.head+i] }

func (q *instDeque) popFront() {
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
}

func (q *instDeque) push(d *DynInst) {
	if len(q.buf) == cap(q.buf) && q.head > 0 {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, d)
}

// truncate drops entries from the tail until n remain.
func (q *instDeque) truncate(n int) { q.buf = q.buf[:q.head+n] }
