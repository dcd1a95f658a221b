package daemon

import (
	"math"
	"testing"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

func TestConstantPriorityScoresEverythingEqually(t *testing.T) {
	p, err := NewPriority("constant")
	if err != nil {
		t.Fatal(err)
	}
	items := []*sched.Item{
		{},
		{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: time.Minute, Deadline: 2 * time.Hour},
		{Deadline: -time.Second},
	}
	for i, it := range items {
		if k := p.Key(it); k != 0 {
			t.Fatalf("constant key(item %d) = %d, want 0", i, k)
		}
	}
	if p.Name() != "constant" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// TestAgePriorityBoundaries covers the zero instant, seniority order and
// week-long sim times: the key is −Enqueued, which is the waiting time
// now − Enqueued minus the now every queued item shares.
func TestAgePriorityBoundaries(t *testing.T) {
	p, err := NewPriority("age")
	if err != nil {
		t.Fatal(err)
	}
	if k := p.Key(&sched.Item{}); k != 0 {
		t.Fatalf("age key at Enqueued 0 = %d, want 0", k)
	}
	week := 7 * 24 * time.Hour
	it := &sched.Item{Enqueued: time.Hour}
	younger := &sched.Item{Enqueued: time.Hour + week}
	if p.Key(it) != -int64(time.Hour) || p.Key(it)-p.Key(younger) != int64(week) {
		t.Fatalf("age keys %d, %d: want −Enqueued", p.Key(it), p.Key(younger))
	}
	// Strictly monotone in waiting time: an older item always outranks a
	// younger one.
	if p.Key(it) <= p.Key(younger) {
		t.Fatal("older item does not outrank younger item")
	}
}

// TestSLOUrgencyBoundaries pins the least-slack key: service − deadline,
// which is −slack − now for slack = deadline − now − service. Late jobs
// (negative slack) keep their rank above every job with more slack.
func TestSLOUrgencyBoundaries(t *testing.T) {
	p, err := NewPriority("slo-urgency")
	if err != nil {
		t.Fatal(err)
	}
	it := &sched.Item{
		Class:       sched.ClassProduction,
		ExpectedQPU: 30 * time.Second,
		Deadline:    10 * time.Minute,
	}
	if k := p.Key(it); k != int64(30*time.Second-10*time.Minute) {
		t.Fatalf("key = %d, want service − deadline", k)
	}
	for _, now := range []time.Duration{0, 9*time.Minute + 30*time.Second, 12 * time.Minute} {
		slack := it.Deadline - now - it.ExpectedQPU
		if p.Key(it)+int64(now) != -int64(slack) {
			t.Fatalf("at now=%s key+now = %d, want −slack %d", now, p.Key(it)+int64(now), -int64(slack))
		}
	}
	// Equal deadlines, heterogeneous service: the longer job is more urgent.
	long := &sched.Item{Class: sched.ClassProduction, ExpectedQPU: 5 * time.Minute, Deadline: 10 * time.Minute}
	if p.Key(long) <= p.Key(it) {
		t.Fatal("longer-service job not keyed more urgent at equal deadline")
	}
	// A job already past its deadline outranks one that still has slack.
	overdue := &sched.Item{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second, Deadline: time.Minute}
	if p.Key(overdue) <= p.Key(it) {
		t.Fatal("overdue job not keyed more urgent")
	}
}

// TestDeadlineFallbackResolution: items without an explicit deadline resolve
// through the per-class contract anchored at their enqueue time; items in no
// contract at all sink to the no-deadline sentinel.
func TestDeadlineFallbackResolution(t *testing.T) {
	p, err := NewPriority("slo-urgency")
	if err != nil {
		t.Fatal(err)
	}
	// Production contract: 2m base + 2× service. Enqueued at 1h with 30s
	// service ⇒ deadline 1h + 2m + 60s.
	it := &sched.Item{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second}
	want := int64(30*time.Second - (time.Hour + 2*time.Minute + 60*time.Second))
	if k := p.Key(it); k != want {
		t.Fatalf("fallback key = %d, want %d", k, want)
	}
	// An explicit deadline beats the contract.
	pinned := &sched.Item{Class: sched.ClassProduction, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second, Deadline: time.Hour + time.Minute}
	if p.Key(pinned) <= p.Key(it) {
		t.Fatal("explicit tighter deadline not more urgent than the class fallback")
	}
	// dev=0 removes the dev fallback: dev items without explicit deadlines
	// sort behind everything that has one.
	stripped, err := NewPriority("slo-urgency:dev=0s")
	if err != nil {
		t.Fatal(err)
	}
	dev := &sched.Item{Class: sched.ClassDev, Enqueued: time.Hour, ExpectedQPU: 30 * time.Second}
	if k := stripped.Key(dev); k != math.MinInt64 {
		t.Fatalf("contract-less dev item key = %d, want the no-deadline sentinel", k)
	}
}

// TestEDFOrdering: EDF ranks purely by absolute deadline — earlier beats
// later, and service time is irrelevant.
func TestEDFOrdering(t *testing.T) {
	p, err := NewPriority("edf")
	if err != nil {
		t.Fatal(err)
	}
	early := &sched.Item{Class: sched.ClassProduction, Deadline: 5 * time.Minute, ExpectedQPU: time.Hour}
	late := &sched.Item{Class: sched.ClassProduction, Deadline: 6 * time.Minute, ExpectedQPU: time.Second}
	if p.Key(early) <= p.Key(late) {
		t.Fatal("EDF does not prefer the earlier deadline")
	}
	if p.Key(early) != -int64(5*time.Minute) {
		t.Fatalf("EDF key = %d, want −deadline", p.Key(early))
	}
}

// TestNewPriorityParameters round-trips parameterized spellings and rejects
// the malformed ones.
func TestNewPriorityParameters(t *testing.T) {
	p, err := NewPriority("slo-urgency:deadline=120s")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "slo-urgency:deadline=120s" {
		t.Fatalf("Name = %q, want the full parameterized spelling", p.Name())
	}
	// Flat 120s allowance for every class, replacing the service factor.
	it := &sched.Item{Class: sched.ClassDev, Enqueued: 0, ExpectedQPU: 10 * time.Second}
	if k := p.Key(it); k != -int64(110*time.Second) {
		t.Fatalf("flat-deadline key = %d, want −110s", k)
	}

	perClass, err := NewPriority("edf:production=90s:dev=1h")
	if err != nil {
		t.Fatal(err)
	}
	prod := &sched.Item{Class: sched.ClassProduction, Enqueued: 0}
	if k := perClass.Key(prod); k != -int64(90*time.Second) {
		t.Fatalf("production=90s EDF key = %d, want −90s", k)
	}
	// The untouched test-class contract still applies its service factor.
	testItem := &sched.Item{Class: sched.ClassTest, Enqueued: 0, ExpectedQPU: time.Minute}
	spec := workload.DefaultDeadlines()[sched.ClassTest]
	if k := perClass.Key(testItem); k != -int64(spec.Offset(time.Minute)) {
		t.Fatalf("test-class contract perturbed by unrelated parameter: %d", k)
	}

	for _, bad := range []string{
		"constant:deadline=1s",
		"age:deadline=1s",
		"slo-urgency:deadline",
		"slo-urgency:deadline=",
		"slo-urgency:deadline=-5s",
		"slo-urgency:deadline=banana",
		"slo-urgency:qos=1s",
		"lottery",
	} {
		if _, err := NewPriority(bad); err == nil {
			t.Errorf("NewPriority(%q) accepted", bad)
		}
	}
}

func TestAllPrioritiesConstructible(t *testing.T) {
	names := AllPriorities()
	if len(names) != 4 || names[0] != "constant" {
		t.Fatalf("AllPriorities = %v", names)
	}
	for _, name := range names {
		p, err := NewPriority(name)
		if err != nil {
			t.Fatalf("NewPriority(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Name round-trip %q -> %q", name, p.Name())
		}
	}
	if p, err := NewPriority(""); err != nil || p.Name() != "constant" {
		t.Fatalf("empty name: %v, %v", p, err)
	}
}

// TestDeadlineSpecOffsetBoundaries pins the contract arithmetic at its
// edges: empty specs yield no deadline, and negative arithmetic clamps.
func TestDeadlineSpecOffsetBoundaries(t *testing.T) {
	if off := (workload.DeadlineSpec{}).Offset(time.Hour); off != 0 {
		t.Fatalf("empty spec offset = %s, want 0", off)
	}
	if off := (workload.DeadlineSpec{Base: time.Minute}).Offset(0); off != time.Minute {
		t.Fatalf("base-only offset = %s", off)
	}
	if off := (workload.DeadlineSpec{ServiceFactor: 2}).Offset(30 * time.Second); off != time.Minute {
		t.Fatalf("factor-only offset = %s", off)
	}
	if off := (workload.DeadlineSpec{Base: time.Minute, ServiceFactor: -120}).Offset(time.Second); off != 0 {
		t.Fatalf("negative arithmetic offset = %s, want clamp to 0", off)
	}
}
