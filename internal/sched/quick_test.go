package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"hpcqc/internal/simclock"
)

// TestQueuePopOrderProperty: for any push sequence, Pop returns items in
// (class desc, FIFO within class) order.
func TestQueuePopOrderProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		q := NewClassQueue(OrderFIFO, nil)
		seq := make(map[Class][]string)
		for i, c := range classes {
			class := Class(int(c) % 3)
			id := fmt.Sprintf("item-%d", i)
			if err := q.Push(&Item{ID: id, Class: class}); err != nil {
				return false
			}
			seq[class] = append(seq[class], id)
		}
		for c := ClassProduction; c >= ClassDev; c-- {
			for _, want := range seq[c] {
				it := q.Pop()
				if it == nil || it.ID != want || it.Class != c {
					return false
				}
			}
		}
		return q.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueLenInvariantProperty: Len equals pushes minus pops minus removes.
func TestQueueLenInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		q := NewClassQueue(OrderFIFO, nil)
		expected := 0
		var last *Item
		for i, op := range ops {
			switch op % 3 {
			case 0:
				last = &Item{ID: fmt.Sprintf("i%d", i), Class: Class(int(op) % 3)}
				q.Push(last)
				expected++
			case 1:
				if q.Pop() != nil {
					expected--
				}
			case 2:
				if q.Remove(last) {
					expected--
				}
			}
			if q.Len() != expected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// linearQueue is the reference the keyed queue is checked against: the
// slice-per-class queue whose pops scanned the whole class — Pop for the
// fifo order, PopBy under an order comparator, PopByScore re-scoring every
// item at the pop's sim time — that ClassQueue replaced.
type linearQueue struct{ queues [3][]*Item }

func (q *linearQueue) push(it *Item) { q.queues[it.Class] = append(q.queues[it.Class], it) }

func (q *linearQueue) take(c Class, i int) *Item {
	it := q.queues[c][i]
	q.queues[c] = append(q.queues[c][:i], q.queues[c][i+1:]...)
	return it
}

// popByScore removes the maximum-score item of the highest non-empty class;
// equal scores fall to tie, then to the earlier-pushed item. A nil score is
// the order's own pop: the minimum under tie, or the head when tie is nil.
func (q *linearQueue) popByScore(score func(*Item) float64, tie func(a, b *Item) bool) *Item {
	for c := ClassProduction; c >= ClassDev; c-- {
		items := q.queues[c]
		if len(items) == 0 {
			continue
		}
		best := 0
		for i := 1; i < len(items); i++ {
			var s, bs float64
			if score != nil {
				s, bs = score(items[i]), score(items[best])
			}
			if s > bs || (s == bs && tie != nil && tie(items[i], items[best])) {
				best = i
			}
		}
		return q.take(c, best)
	}
	return nil
}

func (q *linearQueue) remove(it *Item) bool {
	for i, x := range q.queues[it.Class] {
		if x == it {
			q.take(it.Class, i)
			return true
		}
	}
	return false
}

// loads recomputes ClassLoads by a full scan.
func (q *linearQueue) loads() (counts [3]int, oldest [3]time.Duration, has [3]bool, qpu [3]time.Duration) {
	for c, items := range q.queues {
		counts[c] = len(items)
		for _, it := range items {
			if !has[c] || it.Enqueued < oldest[c] {
				oldest[c] = it.Enqueued
			}
			has[c] = true
			qpu[c] += it.ExpectedQPU
		}
	}
	return counts, oldest, has, qpu
}

// refPriority is one priority in both forms: the static Key the keyed queue
// ranks by, and the float64-seconds score the linear reference re-computed
// at every pop (nil for constant). An item's deadline of 0 means none.
type refPriority struct {
	name  string
	key   func(it *Item) int64
	score func(it *Item, now time.Duration) float64
}

var refPriorities = []refPriority{
	{"constant", func(*Item) int64 { return 0 }, nil},
	{"age",
		func(it *Item) int64 { return -int64(it.Enqueued) },
		func(it *Item, now time.Duration) float64 { return (now - it.Enqueued).Seconds() }},
	{"edf",
		func(it *Item) int64 {
			if it.Deadline <= 0 {
				return math.MinInt64
			}
			return -int64(it.Deadline)
		},
		func(it *Item, now time.Duration) float64 {
			if it.Deadline <= 0 {
				return -math.MaxFloat64
			}
			return -it.Deadline.Seconds()
		}},
	{"slo-urgency",
		func(it *Item) int64 {
			if it.Deadline <= 0 {
				return math.MinInt64
			}
			return int64(it.ExpectedQPU - it.Deadline)
		},
		func(it *Item, now time.Duration) float64 {
			if it.Deadline <= 0 {
				return -math.MaxFloat64
			}
			return -(it.Deadline - now - it.ExpectedQPU).Seconds()
		}},
}

// refOrder is one order in both forms: the keyed queue's Order under the
// constant and under any other priority, and the reference's comparator
// (nil: plain FIFO head under the constant priority, Enqueued under a score).
type refOrder struct {
	name            string
	constant, keyed Order
	less            func(usage *Usage) func(a, b *Item) bool
}

func seniorityLess(a, b *Item) bool { return a.Enqueued < b.Enqueued }

var refOrders = []refOrder{
	{"fifo", OrderFIFO, OrderSeniority, nil},
	{"fair-share", OrderFairShare, OrderFairShare, func(u *Usage) func(a, b *Item) bool {
		return func(a, b *Item) bool {
			if ua, ub := u.of(a.User), u.of(b.User); ua != ub {
				return ua < ub
			}
			return a.Enqueued < b.Enqueued
		}
	}},
	{"shortest-first", OrderShortestFirst, OrderShortestFirst, func(*Usage) func(a, b *Item) bool {
		return func(a, b *Item) bool {
			ae, be := a.ExpectedQPU, b.ExpectedQPU
			if ae <= 0 {
				ae = math.MaxInt64
			}
			if be <= 0 {
				be = math.MaxInt64
			}
			if ae != be {
				return ae < be
			}
			return a.Enqueued < b.Enqueued
		}
	}},
}

// TestKeyedQueueMatchesLinearScan is the differential property test: for
// every order × priority pair, a random mix of pushes (fresh arrivals and
// requeues that keep an old Enqueued), pops, removals, usage charges and
// clock advances must pop the same items from the keyed queue as from the
// linear reference, and leave identical ClassLoads after every step. Small
// value ranges make equal keys, equal Enqueued and zero ExpectedQPU common.
func TestKeyedQueueMatchesLinearScan(t *testing.T) {
	for _, ord := range refOrders {
		for _, pri := range refPriorities {
			t.Run(ord.name+"/"+pri.name, func(t *testing.T) {
				f := func(seed int64) bool {
					return keyedMatchesLinear(t, rand.New(rand.NewSource(seed)), ord, pri)
				}
				if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func keyedMatchesLinear(t *testing.T, rng *rand.Rand, ord refOrder, pri refPriority) bool {
	usage := NewUsage()
	order := ord.keyed
	if pri.score == nil {
		order = ord.constant
	}
	q := NewClassQueue(order, usage)
	ref := &linearQueue{}
	var tie func(a, b *Item) bool
	switch {
	case ord.less != nil:
		tie = ord.less(usage)
	case pri.score != nil:
		tie = seniorityLess
	}
	var now time.Duration
	var queued []*Item
	users := []string{"u0", "u1", "u2", "u3"}
	for step := 0; step < 300; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // push: a fresh arrival, or a requeue keeping an old Enqueued
			it := &Item{
				ID:          fmt.Sprintf("i%d", step),
				Class:       Class(rng.Intn(3)),
				User:        users[rng.Intn(len(users))],
				Enqueued:    now,
				ExpectedQPU: time.Duration(rng.Intn(3)) * time.Second,
			}
			if rng.Intn(4) == 0 {
				it.Enqueued = now - time.Duration(rng.Intn(20))*time.Second
			}
			if d := rng.Intn(3); d > 0 {
				it.Deadline = it.Enqueued + time.Duration(d)*10*time.Second
			}
			it.Key = pri.key(it)
			if err := q.Push(it); err != nil {
				t.Errorf("push: %v", err)
				return false
			}
			ref.push(it)
			queued = append(queued, it)
		case op < 7:
			var score func(*Item) float64
			if pri.score != nil {
				at := now
				score = func(it *Item) float64 { return pri.score(it, at) }
			}
			want, peek, got := ref.popByScore(score, tie), q.Peek(), q.Pop()
			if got != want || peek != want {
				t.Errorf("step %d: keyed popped %v (peeked %v), reference %v", step, id(got), id(peek), id(want))
				return false
			}
		case op < 8 && len(queued) > 0:
			it := queued[rng.Intn(len(queued))]
			if got, want := q.Remove(it), ref.remove(it); got != want {
				t.Errorf("step %d: Remove(%s) = %v, reference %v", step, it.ID, got, want)
				return false
			}
		case op < 9:
			usage.Add(users[rng.Intn(len(users))], float64(rng.Intn(3)))
		default:
			now += time.Duration(rng.Intn(5)) * time.Second
		}
		c1, o1, h1, p1 := q.ClassLoads()
		c2, o2, h2, p2 := ref.loads()
		if c1 != c2 || o1 != o2 || h1 != h2 || p1 != p2 || q.Len() != c2[0]+c2[1]+c2[2] {
			t.Errorf("step %d: ClassLoads %v %v %v %v, reference %v %v %v %v", step, c1, o1, h1, p1, c2, o2, h2, p2)
			return false
		}
	}
	return true
}

func id(it *Item) string {
	if it == nil {
		return "<nil>"
	}
	return it.ID
}

// TestOrchestratorConservationProperty: for any random batch under any
// policy, every job completes, QPU busy time equals the batch's total
// quantum time (no preemption in a single-class batch), and utilization
// never exceeds 1.
func TestOrchestratorConservationProperty(t *testing.T) {
	f := func(seed int64, policyPick uint8, nJobs uint8) bool {
		policy := []Policy{PolicyExclusiveFIFO, PolicyPriorityExclusive, PolicyInterleave}[int(policyPick)%3]
		n := int(nJobs)%6 + 1
		rng := rand.New(rand.NewSource(seed))
		clk := simclock.New()
		o, err := NewOrchestrator(clk, policy)
		if err != nil {
			return false
		}
		var totalQuantum time.Duration
		for i := 0; i < n; i++ {
			j := &HybridJob{ID: fmt.Sprintf("j%d", i), Class: ClassTest}
			segs := rng.Intn(4) + 1
			for s := 0; s < segs; s++ {
				q := rng.Intn(2) == 0
				d := time.Duration(rng.Intn(50)+1) * time.Second
				j.Segments = append(j.Segments, Segment{Quantum: q, Duration: d})
				if q {
					totalQuantum += d
				}
			}
			if err := o.Submit(j); err != nil {
				return false
			}
		}
		clk.Run(200000) // generous event bound
		if !o.Done() {
			return false
		}
		m := o.Metrics()
		if m.QPUBusy != totalQuantum {
			return false
		}
		if m.QPUUtilization < 0 || m.QPUUtilization > 1.0000001 {
			return false
		}
		return m.JobsCompleted == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleaveNeverWorseProperty: on any batch, interleave's makespan is
// never worse than the exclusive baseline's (it only releases resources
// earlier; both use one QPU and unbounded classical compute).
func TestInterleaveNeverWorseProperty(t *testing.T) {
	f := func(seed int64, nJobs uint8) bool {
		n := int(nJobs)%5 + 2
		build := func() []*HybridJob {
			rng := rand.New(rand.NewSource(seed))
			var jobs []*HybridJob
			for i := 0; i < n; i++ {
				j := &HybridJob{ID: fmt.Sprintf("j%d", i), Class: ClassTest}
				segs := rng.Intn(3) + 1
				for s := 0; s < segs; s++ {
					j.Segments = append(j.Segments, Segment{
						Quantum:  rng.Intn(2) == 0,
						Duration: time.Duration(rng.Intn(40)+1) * time.Second,
					})
				}
				jobs = append(jobs, j)
			}
			return jobs
		}
		run := func(p Policy) time.Duration {
			clk := simclock.New()
			o, _ := NewOrchestrator(clk, p)
			for _, j := range build() {
				o.Submit(j)
			}
			clk.Run(200000)
			if !o.Done() {
				return -1
			}
			return o.Metrics().Makespan
		}
		excl := run(PolicyExclusiveFIFO)
		inter := run(PolicyInterleave)
		if excl < 0 || inter < 0 {
			return false
		}
		return inter <= excl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
