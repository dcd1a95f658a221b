package sched

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

// of returns user's accumulated seconds.
func (u *Usage) of(user string) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	if p := u.users[user]; p != nil {
		return *p
	}
	return 0
}

// drain pushes copies of items into a fresh queue and returns the pop order.
func drain(t *testing.T, order Order, usage *Usage, items []*Item) []string {
	t.Helper()
	q := NewClassQueue(order, usage)
	for _, it := range items {
		cp := *it
		if err := q.Push(&cp); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for it := q.Pop(); it != nil; it = q.Pop() {
		got = append(got, it.ID)
	}
	return got
}

// TestPopByTieBreakDeterminism is the table-driven determinism check for the
// Order tie-breaks under equal keys: each order resolves ties its own way,
// full ties resolve to the earlier-pushed item, and repeated runs over
// identical queues pop identical orders.
func TestPopByTieBreakDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		order Order
		items []*Item
		want  []string
	}{
		{
			// OrderFIFO ignores Enqueued: push order only.
			name:  "all-tied falls back to FIFO",
			order: OrderFIFO,
			items: []*Item{
				{ID: "a", Class: ClassDev, Enqueued: 3 * time.Second},
				{ID: "b", Class: ClassDev, Enqueued: 2 * time.Second},
				{ID: "c", Class: ClassDev, Enqueued: 1 * time.Second},
			},
			want: []string{"a", "b", "c"},
		},
		{
			name:  "seniority: a requeued item regains its place",
			order: OrderSeniority,
			items: []*Item{
				{ID: "new-1", Class: ClassDev, Enqueued: 5 * time.Second},
				{ID: "new-2", Class: ClassDev, Enqueued: 5 * time.Second},
				{ID: "requeued", Class: ClassDev, Enqueued: 1 * time.Second},
			},
			want: []string{"requeued", "new-1", "new-2"},
		},
		{
			// Equal hints resolve by seniority; unknown hints sort last.
			name:  "equal keys across push order stay stable",
			order: OrderShortestFirst,
			items: []*Item{
				{ID: "unknown", Class: ClassDev, Enqueued: 0},
				{ID: "late-short", Class: ClassDev, Enqueued: 5 * time.Second, ExpectedQPU: 10 * time.Second},
				{ID: "early-short", Class: ClassDev, Enqueued: 1 * time.Second, ExpectedQPU: 10 * time.Second},
				{ID: "long", Class: ClassDev, Enqueued: 0, ExpectedQPU: 60 * time.Second},
			},
			want: []string{"early-short", "late-short", "long", "unknown"},
		},
		{
			name:  "class priority outranks comparator",
			order: OrderShortestFirst,
			items: []*Item{
				{ID: "dev-tiny", Class: ClassDev, Enqueued: 0, ExpectedQPU: time.Second},
				{ID: "prod-huge", Class: ClassProduction, Enqueued: 1 * time.Second, ExpectedQPU: time.Hour},
				{ID: "test-mid", Class: ClassTest, Enqueued: 2 * time.Second, ExpectedQPU: time.Minute},
			},
			want: []string{"prod-huge", "test-mid", "dev-tiny"},
		},
		{
			// OrderFIFO has no comparator: class first, then push order.
			name:  "nil comparator degrades to Pop",
			order: OrderFIFO,
			items: []*Item{
				{ID: "d1", Class: ClassDev, Enqueued: 1 * time.Second},
				{ID: "p1", Class: ClassProduction, Enqueued: 2 * time.Second},
			},
			want: []string{"p1", "d1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < 2; run++ {
				if got := drain(t, tc.order, nil, tc.items); fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("run %d: pop order = %v, want %v", run, got, tc.want)
				}
			}
		})
	}
}

// TestPopByScoreDeterminism is the key-axis counterpart of the tie-break
// table: the highest Key within the highest non-empty class wins, equal keys
// resolve through the order, and full ties pop in push order — identically
// on every run.
func TestPopByScoreDeterminism(t *testing.T) {
	cases := []struct {
		name  string
		order Order
		items []*Item
		want  []string
	}{
		{
			name:  "score decides within a class",
			order: OrderSeniority,
			items: []*Item{
				{ID: "slow", Class: ClassDev, Key: -3},
				{ID: "fast", Class: ClassDev, Enqueued: time.Second, Key: -1},
				{ID: "mid", Class: ClassDev, Enqueued: 2 * time.Second, Key: -2},
			},
			want: []string{"fast", "mid", "slow"},
		},
		{
			name:  "equal scores fall to the tie comparator",
			order: OrderSeniority,
			items: []*Item{
				{ID: "late", Class: ClassDev, Enqueued: 9 * time.Second, Key: 7},
				{ID: "early", Class: ClassDev, Enqueued: 1 * time.Second, Key: 7},
			},
			want: []string{"early", "late"},
		},
		{
			name:  "full ties with nil comparator pop in push order",
			order: OrderFIFO,
			items: []*Item{
				{ID: "first", Class: ClassDev, Enqueued: 3 * time.Second, Key: 42},
				{ID: "second", Class: ClassDev, Enqueued: 3 * time.Second, Key: 42},
				{ID: "third", Class: ClassDev, Enqueued: 3 * time.Second, Key: 42},
			},
			want: []string{"first", "second", "third"},
		},
		{
			name:  "class priority outranks any score",
			order: OrderSeniority,
			items: []*Item{
				{ID: "dev-urgent", Class: ClassDev, Key: math.MaxInt64},
				{ID: "prod-relaxed", Class: ClassProduction, Enqueued: time.Second, Key: math.MinInt64},
			},
			want: []string{"prod-relaxed", "dev-urgent"},
		},
		{
			// The constant key leaves the order in control.
			name:  "nil score degrades to PopBy",
			order: OrderSeniority,
			items: []*Item{
				{ID: "b", Class: ClassDev, Enqueued: 2 * time.Second},
				{ID: "a", Class: ClassDev, Enqueued: 1 * time.Second},
			},
			want: []string{"a", "b"},
		},
		{
			name:  "the no-deadline key sorts behind every real key",
			order: OrderFIFO,
			items: []*Item{
				{ID: "none-1", Class: ClassTest, Key: math.MinInt64},
				{ID: "late", Class: ClassTest, Key: -int64(time.Hour)},
				{ID: "none-2", Class: ClassTest, Key: math.MinInt64},
			},
			want: []string{"late", "none-1", "none-2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for run := 0; run < 2; run++ {
				if got := drain(t, tc.order, nil, tc.items); fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Fatalf("run %d: pop order = %v, want %v", run, got, tc.want)
				}
			}
		})
	}
}

// TestPopByScoreKeepsClassLoadsLazy: a mid-queue extraction must keep the
// O(classes) ClassLoads bulk read exact — counts drop, the oldest-Enqueued
// view skips the extracted item and the queued-QPU sum follows.
func TestPopByScoreKeepsClassLoadsLazy(t *testing.T) {
	q := NewClassQueue(OrderSeniority, nil)
	for i, exp := range []time.Duration{time.Hour, time.Second, time.Minute} {
		if err := q.Push(&Item{
			ID:          fmt.Sprintf("it-%d", i),
			Class:       ClassTest,
			Enqueued:    time.Duration(i) * time.Second,
			ExpectedQPU: exp,
			Key:         -int64(exp),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Highest key = shortest expected: extracts it-1 from the middle.
	it := q.Pop()
	if it == nil || it.ID != "it-1" {
		t.Fatalf("popped %+v, want it-1", it)
	}
	counts, oldest, has, qpu := q.ClassLoads()
	if counts[ClassTest] != 2 {
		t.Fatalf("ClassLoads count = %d, want 2", counts[ClassTest])
	}
	if !has[ClassTest] || oldest[ClassTest] != 0 {
		t.Fatalf("oldest enqueue = %s (has=%v), want it-0's 0s", oldest[ClassTest], has[ClassTest])
	}
	if qpu[ClassTest] != time.Hour+time.Minute {
		t.Fatalf("queued QPU = %s, want %s", qpu[ClassTest], time.Hour+time.Minute)
	}
	// Pop it-2 (minute), then remove the oldest (it-0): the view empties.
	if it := q.Pop(); it == nil || it.ID != "it-2" {
		t.Fatalf("popped %+v, want it-2", it)
	}
	counts, oldest, has, qpu = q.ClassLoads()
	if counts[ClassTest] != 1 || !has[ClassTest] || oldest[ClassTest] != 0 || qpu[ClassTest] != time.Hour {
		t.Fatalf("after second pop: count=%d oldest=%s has=%v qpu=%s", counts[ClassTest], oldest[ClassTest], has[ClassTest], qpu[ClassTest])
	}
	if !q.Remove(q.Peek()) {
		t.Fatal("Remove of the queued head reported false")
	}
	counts, _, has, qpu = q.ClassLoads()
	if counts[ClassTest] != 0 || has[ClassTest] || qpu[ClassTest] != 0 {
		t.Fatalf("after removal: count=%d has=%v qpu=%s", counts[ClassTest], has[ClassTest], qpu[ClassTest])
	}
}

// TestRemoveNonexistent pins down Remove's behavior for items that are not
// in the queue: nil, never pushed, queued elsewhere, and double-remove.
func TestRemoveNonexistent(t *testing.T) {
	q := NewClassQueue(OrderFIFO, nil)
	if q.Remove(nil) || q.Remove(&Item{ID: "ghost"}) {
		t.Fatal("Remove on empty queue reported true")
	}
	real := &Item{ID: "real", Class: ClassTest}
	if err := q.Push(real); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(real); err == nil {
		t.Fatal("double Push of a queued item accepted")
	}
	other := NewClassQueue(OrderFIFO, nil)
	if other.Remove(real) {
		t.Fatal("Remove from the wrong queue reported true")
	}
	if q.Remove(&Item{ID: "real", Class: ClassTest}) {
		t.Fatal("Remove of an unqueued item with a queued ID reported true")
	}
	if q.Len() != 1 {
		t.Fatalf("failed Remove mutated the queue: len=%d", q.Len())
	}
	if !q.Remove(real) {
		t.Fatal("Remove of queued item reported false")
	}
	if q.Remove(real) {
		t.Fatal("double Remove reported true")
	}
	if q.Len() != 0 || q.Pop() != nil {
		t.Fatal("queue not empty after removal")
	}
	// A removed item may be queued again.
	if err := other.Push(real); err != nil || other.Pop() != real {
		t.Fatalf("re-push after removal: %v", err)
	}
}

// TestCrossClassStarvation documents the queue's strict-priority contract
// under sustained high-priority load: dev work never pops while production
// keeps arriving (the ClassQueue itself offers no aging — fairness across
// users exists only within a class via OrderFairShare, and the paper accepts
// production starving dev), then drains in FIFO order once the flood stops.
func TestCrossClassStarvation(t *testing.T) {
	q := NewClassQueue(OrderFIFO, nil)
	for i := 0; i < 3; i++ {
		if err := q.Push(&Item{ID: fmt.Sprintf("dev-%d", i), Class: ClassDev, Enqueued: time.Duration(i) * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	// Sustained production arrivals: one new production item per pop.
	for round := 0; round < 50; round++ {
		if err := q.Push(&Item{
			ID:       fmt.Sprintf("prod-%d", round),
			Class:    ClassProduction,
			Enqueued: time.Duration(10+round) * time.Second,
		}); err != nil {
			t.Fatal(err)
		}
		it := q.Pop()
		if it == nil {
			t.Fatal("queue empty mid-flood")
		}
		if it.Class != ClassProduction {
			t.Fatalf("round %d: popped %s (%s) during production flood", round, it.ID, it.Class)
		}
		if want := fmt.Sprintf("prod-%d", round); it.ID != want {
			t.Fatalf("round %d: production order broke: got %s, want %s", round, it.ID, want)
		}
	}
	if counts, _, _, _ := q.ClassLoads(); counts[ClassDev] != 3 {
		t.Fatalf("dev queue depth = %d during flood, want 3 (starved, not lost)", counts[ClassDev])
	}
	// Flood over: dev drains in arrival order.
	for i := 0; i < 3; i++ {
		it := q.Pop()
		if it == nil || it.ID != fmt.Sprintf("dev-%d", i) {
			t.Fatalf("dev drain order broke at %d: %+v", i, it)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty: %d", q.Len())
	}
}

// TestSharedUsageConcurrent drives several fair-share queues that share one
// ledger from concurrent goroutines — pushes, pops, removals and usage
// charges, as a fleet's partitions do — so the race detector sees every
// lock the ledger and the queues take.
func TestSharedUsageConcurrent(t *testing.T) {
	usage := NewUsage()
	queues := []*ClassQueue{NewClassQueue(OrderFairShare, usage), NewClassQueue(OrderFairShare, usage)}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			q := queues[w%len(queues)]
			for i := 0; i < 500; i++ {
				it := &Item{ID: fmt.Sprintf("w%d-%d", w, i), Class: Class(i % 3), User: fmt.Sprintf("u%d", i%5)}
				if err := q.Push(it); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					q.Remove(it)
				} else if p := q.Pop(); p != nil {
					usage.Add(p.User, 1)
				}
				q.ClassLoads()
			}
		}(w)
	}
	wg.Wait()
	for _, q := range queues {
		for q.Pop() != nil {
		}
		if q.Len() != 0 {
			t.Fatalf("queue not drained: %d", q.Len())
		}
	}
}
