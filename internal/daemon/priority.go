package daemon

// The priority axis is the fourth pluggable stage knob: a PriorityPolicy
// gives each queued item a static integer key, and the OrderPolicy breaks
// key ties, so `slo-urgency × fair-share` means "most urgent first,
// least-served user among equally urgent".
//
// Keys are static: computed once when a job enters a queue. Every built-in
// urgency is a per-item term plus the clock, which every queued item shares
// and so cannot change a ranking — the order is fixed at enqueue:
//
//	constant     0                  (the order alone decides)
//	age          −Enqueued          (waiting time now − Enqueued, minus now)
//	edf          −deadline
//	slo-urgency  service − deadline (−slack, minus now)
//
// Integer-ns keys rank exactly like float64 seconds below 2⁵² ns (~52 days).
// A policy whose ranking could change while jobs wait does not fit.

import (
	"fmt"
	"math"
	"strings"
	"time"

	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// PriorityPolicy is the urgency scheduling axis: a static per-item key. The
// highest key within the highest non-empty class dispatches next; the active
// OrderPolicy breaks ties.
type PriorityPolicy interface {
	// Name identifies the policy for status reports and sweep axes,
	// including any inline parameters (e.g. "slo-urgency:deadline=120s").
	Name() string
	// Key ranks a job entering a queue; higher is more urgent. It is called
	// once per enqueue and must be a pure function of the item.
	Key(it *sched.Item) int64
}

// noDeadlineKey sorts items without any resolvable deadline behind every
// item that has one, for the deadline-driven policies. Equal among
// themselves, so the order policy's tie-break takes over.
const noDeadlineKey = math.MinInt64

// constantPriority is the default identity policy: all items key equally,
// leaving the order policy in sole control.
type constantPriority struct{}

func (constantPriority) Name() string          { return "constant" }
func (constantPriority) Key(*sched.Item) int64 { return 0 }

// agePriority ranks items by time spent queued — pure anti-starvation: the
// longest-waiting item runs first regardless of how it arrived. Within a
// single class this degrades to seniority order; its value is keeping
// preemption-requeued jobs (whose Enqueued stays the original submit time)
// ahead of younger arrivals.
type agePriority struct{}

func (agePriority) Name() string             { return "age" }
func (agePriority) Key(it *sched.Item) int64 { return -int64(it.Enqueued) }

// deadlinePriority implements both deadline-driven policies over the same
// deadline resolution: an item's explicit Deadline when it carries one,
// otherwise the per-class fallback contract applied to its enqueue time.
//
//	edf         key = −deadline: classic earliest-deadline-first.
//	slo-urgency key = service − deadline: least-slack-first, slack =
//	            deadline − now − expected service. Jobs with equal
//	            deadlines but longer service sort ahead — the shape that
//	            converts urgency into deadline hits when service times are
//	            heterogeneous.
type deadlinePriority struct {
	label    string
	edf      bool
	fallback map[sched.Class]workload.DeadlineSpec
}

func (p *deadlinePriority) Name() string { return p.label }

// deadline resolves the absolute sim-time deadline for an item, or 0 when
// neither the item nor the class contract provides one.
func (p *deadlinePriority) deadline(it *sched.Item) time.Duration {
	if it.Deadline > 0 {
		return it.Deadline
	}
	if spec, ok := p.fallback[it.Class]; ok {
		if off := spec.Offset(it.ExpectedQPU); off > 0 {
			return it.Enqueued + off
		}
	}
	return 0
}

func (p *deadlinePriority) Key(it *sched.Item) int64 {
	dl := p.deadline(it)
	if dl <= 0 {
		return noDeadlineKey
	}
	if p.edf {
		return -int64(dl)
	}
	return int64(it.ExpectedQPU - dl)
}

// configure applies colon-separated key=value parameters to the fallback
// deadline contracts. `deadline=DUR` replaces every class contract with a
// flat DUR allowance; `production=DUR`, `test=DUR`, `dev=DUR` replace one
// class each (DUR of 0 removes that class's fallback entirely). Explicit
// per-job deadlines always win over any fallback.
func (p *deadlinePriority) configure(params string) error {
	for _, kv := range strings.Split(params, ":") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return fmt.Errorf("daemon: priority %s: malformed parameter %q (want key=value)", p.label, kv)
		}
		dur, err := time.ParseDuration(val)
		if err != nil || dur < 0 {
			return fmt.Errorf("daemon: priority %s: parameter %s wants a non-negative duration, got %q", p.label, key, val)
		}
		switch key {
		case "deadline":
			for c := range p.fallback {
				p.fallback[c] = workload.DeadlineSpec{Base: dur}
			}
		case "production":
			p.fallback[sched.ClassProduction] = workload.DeadlineSpec{Base: dur}
		case "test":
			p.fallback[sched.ClassTest] = workload.DeadlineSpec{Base: dur}
		case "dev":
			p.fallback[sched.ClassDev] = workload.DeadlineSpec{Base: dur}
		default:
			return fmt.Errorf("daemon: priority %s: unknown parameter %q (deadline, production, test, dev)", p.label, key)
		}
	}
	return nil
}

// NewPriority builds a priority policy by name — the switch behind the
// loadgen priority axis and qcsd's -priority flag. The empty name is the
// constant default; slo-urgency and edf accept inline fallback-deadline
// parameters, e.g. "slo-urgency:deadline=120s" or "edf:production=90s".
// The full parameterized spelling is preserved as the policy's Name.
func NewPriority(name string) (PriorityPolicy, error) {
	base, params, hasParams := strings.Cut(name, ":")
	switch base {
	case "constant", "":
		if hasParams {
			return nil, fmt.Errorf("daemon: priority constant takes no parameters (got %q)", name)
		}
		return constantPriority{}, nil
	case "age":
		if hasParams {
			return nil, fmt.Errorf("daemon: priority age takes no parameters (got %q)", name)
		}
		return agePriority{}, nil
	case "slo-urgency", "edf":
		p := &deadlinePriority{label: name, edf: base == "edf", fallback: workload.DefaultDeadlines()}
		if hasParams {
			if err := p.configure(params); err != nil {
				return nil, err
			}
		}
		return p, nil
	default:
		return nil, fmt.Errorf("daemon: unknown priority %q (constant, age, slo-urgency, edf)", name)
	}
}

// AllPriorities lists the built-in priority policy names, in their canonical
// sweep-axis order.
func AllPriorities() []string {
	return []string{"constant", "age", "slo-urgency", "edf"}
}
