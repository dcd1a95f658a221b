package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// BenchmarkClassQueuePop measures one dispatch's queue work at a steady
// backlog: pop the next item, charge its user's usage (the settle a
// fair-share daemon performs), and push it back as a fresh arrival, for
// every order × priority pair at depths 10², 10³ and 10⁴ over 256 users.
func BenchmarkClassQueuePop(b *testing.B) {
	for _, depth := range []int{100, 1000, 10000} {
		for _, ord := range refOrders {
			for _, pri := range refPriorities {
				b.Run(fmt.Sprintf("depth=%d/%s/%s", depth, ord.name, pri.name), func(b *testing.B) {
					benchPop(b, depth, ord, pri)
				})
			}
		}
	}
}

func benchPop(b *testing.B, depth int, ord refOrder, pri refPriority) {
	rng := rand.New(rand.NewSource(1))
	usage := NewUsage()
	order := ord.keyed
	if pri.score == nil {
		order = ord.constant
	}
	q := NewClassQueue(order, usage)
	var now time.Duration
	arrive := func(it *Item) {
		now += time.Duration(rng.Intn(1000)) * time.Millisecond
		it.Class = Class(rng.Intn(3))
		it.Enqueued = now
		it.ExpectedQPU = time.Duration(rng.Intn(120)) * time.Second
		it.Deadline = now + time.Duration(30+rng.Intn(600))*time.Second
		it.Key = pri.key(it)
		if err := q.Push(it); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		arrive(&Item{ID: fmt.Sprintf("i%d", i), User: fmt.Sprintf("u%d", i%256)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := q.Pop()
		usage.Add(it.User, it.ExpectedQPU.Seconds())
		arrive(it)
	}
}
