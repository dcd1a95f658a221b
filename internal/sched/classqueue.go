package sched

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Item is a queued unit of work for the ClassQueue.
type Item struct {
	ID    string
	Class Class
	// User owns the item; the FairShare order ranks users by their usage.
	User     string
	Enqueued time.Duration
	// ExpectedQPU is the declared or estimated time the item will hold the
	// QPU — the "expected time running on the QC hardware" hint the paper
	// proposes for planning interleaving (§3.5). Zero means unknown.
	ExpectedQPU time.Duration
	// Deadline is the absolute sim time by which the item should finish
	// (submission time plus the job's relative deadline). Zero means the
	// item carries no deadline; urgency-aware priority policies fall back
	// to per-class defaults.
	Deadline time.Duration
	// Key is the item's static priority within its class: higher keys pop
	// first, and the queue's Order breaks ties. It must be set before Push
	// and must not change while the item waits — the contract that makes
	// every pop O(log n) instead of a re-ranking of the backlog.
	Key int64
	// Payload is opaque to the queue (the daemon stores its job record).
	Payload any

	// Written by Push: push sequence, the Order's tie-break fields, the owning
	// group and the item's heap indexes (idx is -1 once the item leaves).
	seq      uint64
	tie, enq int64
	grp      *group
	idx      int
	oldest   int
}

func (a *Item) before(b *Item) bool {
	if a.Key != b.Key {
		return a.Key > b.Key
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	if a.enq != b.enq {
		return a.enq < b.enq
	}
	return a.seq < b.seq
}

func (a *Item) setIndex(i int) { a.idx = i }

// byEnqueued orders items for the per-class oldest-Enqueued heap.
type byEnqueued struct{ *Item }

func (a byEnqueued) before(b byEnqueued) bool { return a.Enqueued < b.Enqueued }
func (a byEnqueued) setIndex(i int)           { a.oldest = i }

// Order is a ClassQueue's within-class tie-break below Item.Key.
type Order uint8

const (
	// OrderFIFO pops equal keys in push order.
	OrderFIFO Order = iota
	// OrderSeniority pops equal keys by earliest Enqueued, then push order,
	// so a requeued item that kept its original Enqueued regains its place.
	OrderSeniority
	// OrderShortestFirst pops equal keys by shortest ExpectedQPU — the
	// paper's duration hint (§3.5), which minimizes mean wait for the same
	// total work — with unknown (zero) durations last, then by seniority.
	OrderShortestFirst
	// OrderFairShare pops equal keys from the least-served User first, per
	// the queue's Usage ledger — the "fairer resource sharing" the paper
	// lists as future scheduler work (§4) — then by seniority.
	OrderFairShare
)

// Usage is the fair-share ledger: accumulated QPU seconds per user, shared
// by the partition queues of one daemon. Its mutex is a leaf lock: queues
// read it under their own lock, and nothing is acquired under it.
type Usage struct {
	mu    sync.Mutex
	users map[string]*float64
}

// NewUsage returns an empty ledger.
func NewUsage() *Usage { return &Usage{users: make(map[string]*float64)} }

// Add charges seconds to user. Usage only grows — non-positive charges are
// ignored — which is what lets a FairShare queue re-rank users lazily.
func (u *Usage) Add(user string, seconds float64) {
	if !(seconds > 0) {
		return
	}
	u.mu.Lock()
	*u.entryLocked(user) += seconds
	u.mu.Unlock()
}

func (u *Usage) entryLocked(user string) *float64 {
	p := u.users[user]
	if p == nil {
		p = new(float64)
		u.users[user] = p
	}
	return p
}

// group is one user's items within a class under OrderFairShare, or the
// whole class under every other order: a heap under Item.before whose head
// competes in the class's group heap.
type group struct {
	items []*Item
	idx   int // position in the class's group heap, -1 while empty
	q     *ClassQueue
	// served is the user's ledger entry (FairShare only); usage is its value
	// when the group was last positioned. Usage only grows, so a stale value
	// is an optimistic bound on the group's true rank.
	served *float64
	usage  float64
}

func (g *group) before(h *group) bool {
	a, b := g.items[0], h.items[0]
	if a.Key != b.Key {
		return a.Key > b.Key
	}
	if g.usage != h.usage {
		return g.usage < h.usage
	}
	return a.before(b)
}

func (g *group) setIndex(i int) { g.idx = i }

// classState is one class's share of a ClassQueue.
type classState struct {
	groups []*group          // non-empty groups, a heap under group.before
	byUser map[string]*group // every group seen in the class, by user
	qpu    time.Duration     // summed queued ExpectedQPU (Retry-After hints)
	oldest []byEnqueued      // every queued item, a heap under byEnqueued.before
}

// ClassQueue is a three-class priority queue: a higher class always pops
// first, and within a class the highest Item.Key pops first, ties broken by
// the queue's Order. Every operation is O(log n) in the backlog.
type ClassQueue struct {
	mu      sync.Mutex
	order   Order
	usage   *Usage
	seq     uint64
	classes [ClassProduction + 1]classState
}

// NewClassQueue returns an empty queue with the given tie-break order.
// usage is the ledger OrderFairShare ranks users by (nil: a private, empty
// one); other orders ignore it.
func NewClassQueue(order Order, usage *Usage) *ClassQueue {
	if usage == nil {
		usage = NewUsage()
	}
	return &ClassQueue{order: order, usage: usage}
}

// Push enqueues an item. An item may be pushed again once it has left a
// queue, but not while it is queued.
func (q *ClassQueue) Push(it *Item) error {
	if it == nil || it.ID == "" {
		return errors.New("sched: queue item needs an ID")
	}
	if it.Class < ClassDev || it.Class > ClassProduction {
		return fmt.Errorf("sched: invalid class %d", it.Class)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if it.grp != nil && it.idx >= 0 {
		return fmt.Errorf("sched: item %s is already queued", it.ID)
	}
	q.seq++
	it.seq = q.seq
	it.tie, it.enq = 0, int64(it.Enqueued)
	switch q.order {
	case OrderFIFO:
		it.enq = 0
	case OrderShortestFirst:
		if it.tie = int64(it.ExpectedQPU); it.tie <= 0 {
			it.tie = math.MaxInt64
		}
	}
	cs := &q.classes[it.Class]
	g := q.groupOf(cs, it.User)
	it.grp = g
	g.items = heapPush(g.items, it)
	if g.idx < 0 {
		cs.groups = heapPush(cs.groups, g)
	} else {
		// The head can only have moved earlier.
		heapUp(cs.groups, g.idx)
	}
	cs.oldest = heapPush(cs.oldest, byEnqueued{it})
	cs.qpu += it.ExpectedQPU
	return nil
}

// groupOf returns the group an item of user joins in class cs: the user's
// own under OrderFairShare, the class's only group under any other order.
func (q *ClassQueue) groupOf(cs *classState, user string) *group {
	if q.order != OrderFairShare {
		user = ""
	}
	g := cs.byUser[user]
	if g == nil {
		g = &group{idx: -1, q: q}
		if q.order == OrderFairShare {
			q.usage.mu.Lock()
			g.served = q.usage.entryLocked(user)
			q.usage.mu.Unlock()
		}
		if cs.byUser == nil {
			cs.byUser = make(map[string]*group)
		}
		cs.byUser[user] = g
	}
	return g
}

// head returns the class's next group. Under OrderFairShare a group sits
// where its user's usage put it when it was last positioned; usage only
// grows, so a stale position can only be too early, and the first head
// whose recorded usage is current is the true minimum. A usage charge
// re-positions each of that user's groups at most once.
func (q *ClassQueue) head(cs *classState) *group {
	if q.order != OrderFairShare {
		return cs.groups[0]
	}
	q.usage.mu.Lock()
	defer q.usage.mu.Unlock()
	g := cs.groups[0]
	for *g.served != g.usage {
		g.usage = *g.served
		heapDown(cs.groups, 0)
		g = cs.groups[0]
	}
	return g
}

// take unlinks a queued item from every heap of its class.
func (q *ClassQueue) take(it *Item) {
	cs := &q.classes[it.Class]
	g := it.grp
	g.items = heapRemove(g.items, it.idx)
	if len(g.items) == 0 {
		cs.groups = heapRemove(cs.groups, g.idx)
	} else {
		heapFix(cs.groups, g.idx)
	}
	cs.oldest = heapRemove(cs.oldest, it.oldest)
	cs.qpu -= it.ExpectedQPU
}

// Pop removes and returns the next item — the highest key of the highest
// non-empty class, ties broken by the Order — or nil when empty.
func (q *ClassQueue) Pop() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	it := q.peekLocked()
	if it != nil {
		q.take(it)
	}
	return it
}

// Peek returns the item Pop would return, without removing it.
func (q *ClassQueue) Peek() *Item {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.peekLocked()
}

func (q *ClassQueue) peekLocked() *Item {
	for c := ClassProduction; c >= ClassDev; c-- {
		if cs := &q.classes[c]; len(cs.groups) > 0 {
			return q.head(cs).items[0]
		}
	}
	return nil
}

// Remove deletes a queued item, reporting whether it was in this queue.
func (q *ClassQueue) Remove(it *Item) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if it == nil || it.grp == nil || it.grp.q != q || it.idx < 0 {
		return false
	}
	q.take(it)
	return true
}

// Len returns the total queued count.
func (q *ClassQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for c := range q.classes {
		n += len(q.classes[c].oldest)
	}
	return n
}

// ClassLoads snapshots every class's queued count, earliest Enqueued time
// and summed queued ExpectedQPU under a single lock acquisition — the bulk
// read behind the admission stage's fleet load view, O(classes) per call.
// has[c] reports whether class c has any backlog (oldest[c] is meaningful
// only then).
func (q *ClassQueue) ClassLoads() (counts [ClassProduction + 1]int, oldest [ClassProduction + 1]time.Duration, has [ClassProduction + 1]bool, qpu [ClassProduction + 1]time.Duration) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c := range q.classes {
		cs := &q.classes[c]
		counts[c], qpu[c] = len(cs.oldest), cs.qpu
		if has[c] = counts[c] > 0; has[c] {
			oldest[c] = cs.oldest[0].Enqueued
		}
	}
	return counts, oldest, has, qpu
}

// heapNode is an element of the queue's indexed binary min-heaps: it orders
// itself against a sibling and records its own position, so any element can
// be removed or re-positioned in O(log n).
type heapNode[T any] interface {
	before(T) bool
	setIndex(int)
}

func heapPush[T heapNode[T]](h []T, x T) []T {
	x.setIndex(len(h))
	h = append(h, x)
	heapUp(h, len(h)-1)
	return h
}

// heapRemove deletes h[i] and marks it with index -1.
func heapRemove[T heapNode[T]](h []T, i int) []T {
	x, n := h[i], len(h)-1
	if i != n {
		h[i] = h[n]
		h[i].setIndex(i)
	}
	var zero T
	h[n] = zero
	h = h[:n]
	if i != n {
		heapFix(h, i)
	}
	x.setIndex(-1)
	return h
}

func heapFix[T heapNode[T]](h []T, i int) {
	if !heapDown(h, i) {
		heapUp(h, i)
	}
}

func heapUp[T heapNode[T]](h []T, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		h[i].setIndex(i)
		h[p].setIndex(p)
		i = p
	}
}

// heapDown sifts h[i] toward the leaves, reporting whether it moved.
func heapDown[T heapNode[T]](h []T, i int) bool {
	start := i
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].before(h[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			return i > start
		}
		h[i], h[m] = h[m], h[i]
		h[i].setIndex(i)
		h[m].setIndex(m)
		i = m
	}
}
