package daemon

// The submit→dispatch path is an explicit four-stage pipeline, each stage a
// pluggable policy behind its own interface:
//
//	submission
//	    │
//	    ▼
//	[1] admission   admission.Policy — who enters the system, at what class
//	    │               (accept-all, queue-depth, token-bucket, slo-guard;
//	    │                rejected jobs terminate here with a reason)
//	    ▼
//	[2] routing     Router — which partition
//	    │               (round-robin, least-loaded, class-affinity; pins skip
//	    │                the router but never the door)
//	    ▼
//	[3] queueing    PriorityPolicy key + OrderPolicy tie-break over
//	    │               sched.ClassQueue — what order within the partition
//	    │               (class priority is fixed; the key and order act
//	    │                within class, O(log n) per pop)
//	    ▼
//	[4] dispatch    per-partition dispatch loop — when to run, whom to
//	                    preempt (production preempts lower classes; one
//	                    daemon lock, so every stage is serial)
//
// Stages 2–4 were already independent policy axes; stage 1 closes the loop:
// the SLO signals dispatch produces (waits, slowdowns) feed back into
// admission, which is the only stage that can act *before* overload damages
// production latency. Submit in daemon.go walks the stages in order.

import (
	"fmt"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/sched"
	"hpcqc/internal/telemetry"
)

// --- queueing stage ---

// OrderPolicy is the queueing stage's within-class order: the tie-break a
// partition's sched.ClassQueue applies among items whose PriorityPolicy keys
// are equal. Class priority is owned by the queue itself; an order only
// ranks items of the highest non-empty class.
type OrderPolicy interface {
	// Name identifies the order for status reports and sweep axes.
	Name() string
	// tieBreak is the queue order this policy ranks by under priority p.
	tieBreak(p PriorityPolicy) sched.Order
}

// fifoOrder is arrival order within a class.
type fifoOrder struct{}

func (fifoOrder) Name() string { return "fifo" }

// Under the constant priority fifo is push order, so a preempted job
// re-queues behind later arrivals; under any other it breaks key ties by
// seniority (earliest Enqueued). Both are how earlier builds dispatched.
func (fifoOrder) tieBreak(p PriorityPolicy) sched.Order {
	if _, constant := p.(constantPriority); constant {
		return sched.OrderFIFO
	}
	return sched.OrderSeniority
}

// fairShareOrder runs the least-served user first within a class (earliest
// submission on ties) — the "fairer resource sharing" extension the paper's
// discussion names. Usage is the daemon's per-user QPU-seconds ledger.
type fairShareOrder struct{}

func (fairShareOrder) Name() string                        { return "fair-share" }
func (fairShareOrder) tieBreak(PriorityPolicy) sched.Order { return sched.OrderFairShare }

// shortestFirstOrder orders by the expected QPU duration hint (§3.5),
// shortest first, earliest submission on ties.
type shortestFirstOrder struct{}

func (shortestFirstOrder) Name() string                        { return "shortest-first" }
func (shortestFirstOrder) tieBreak(PriorityPolicy) sched.Order { return sched.OrderShortestFirst }

// NewOrder builds a within-class order by name ("fifo", "fair-share",
// "shortest-first") — the switch behind the loadgen scheduler axis.
func NewOrder(name string) (OrderPolicy, error) {
	switch name {
	case "fifo", "":
		return fifoOrder{}, nil
	case "fair-share":
		return fairShareOrder{}, nil
	case "shortest-first":
		return shortestFirstOrder{}, nil
	default:
		return nil, fmt.Errorf("daemon: unknown scheduler %q (fifo, fair-share, shortest-first)", name)
	}
}

// --- admission stage ---

// RejectedError is Submit's error when the admission stage sheds the job.
// Job is the terminal rejected record (queryable by its session like any
// other job); Reason is the policy rationale. The HTTP layer renders it as
// 429 Too Many Requests.
type RejectedError struct {
	Job    *Job
	Reason string
}

func (e *RejectedError) Error() string {
	return fmt.Sprintf("daemon: job %s rejected by admission: %s", e.Job.ID, e.Reason)
}

// admissionView assembles the fleet-wide load snapshot an admission decision
// consults — O(classes) per partition, one queue-lock acquisition each.
// Called under d.mu, which a submission holds from admission to its queue
// push, so every admitted job is visible to the next view and depth caps are
// exact under concurrent submissions too.
func (d *Daemon) admissionView() admission.View {
	view := admission.View{
		Devices: len(d.fleet),
		ByClass: make(map[sched.Class]admission.ClassLoad, 3),
	}
	now := d.cfg.Clock.Now()
	for _, ds := range d.fleet {
		counts, oldest, has, qpu := ds.queue.ClassLoads()
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			load := view.ByClass[c]
			load.Queued += counts[c]
			load.QueuedQPUSeconds += qpu[c].Seconds()
			if has[c] {
				if age := now - oldest[c]; age > load.OldestAge {
					load.OldestAge = age
				}
			}
			view.ByClass[c] = load
		}
		if ds.running != nil {
			view.Running++
		}
	}
	return view
}

// admitStage runs stage 1 for one submission: build the view (skipped for
// policies that declare themselves Viewless), ask the policy, and count the
// verdict. Decisions are serialized under d.mu so stateful policies (token
// buckets, SLO windows) see submissions in order.
func (d *Daemon) admitStage(req SubmitRequest, user string) admission.Decision {
	var view admission.View
	if _, skip := d.admitter.(admission.Viewless); !skip {
		view = d.admissionView()
	}
	dec := d.admitter.Admit(admission.Request{
		Class:              req.Class,
		Pattern:            req.Pattern,
		Source:             defaultSource(req.Source),
		User:               user,
		Pinned:             req.Device != "",
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		DeadlineSeconds:    req.DeadlineSeconds,
		Now:                d.cfg.Clock.Now(),
	}, view)
	if d.mAdmission != nil {
		if b := d.bAdmit[req.Class][dec.Outcome]; b != nil {
			b.Inc(1)
		} else {
			d.mAdmission.Inc(telemetry.Labels{
				"class":   req.Class.String(),
				"outcome": string(dec.Outcome),
			}, 1)
		}
	}
	if dec.Outcome == admission.Rejected && d.mAdmissionRejected != nil {
		d.bAdmitRej[req.Class].Inc(1)
	}
	return dec
}

// retryAfterHint is the queue-drain estimate attached to rejections: the
// queued expected-QPU backlog at the rejected class and above, spread evenly
// across the fleet's partitions — roughly how long until the work ahead of a
// resubmission drains, assuming no new arrivals. It is a hint for
// well-behaved retrying clients (the frontier report models them), not a
// guarantee: clamped to [1s, 24h] so it is always a usable backoff.
func (d *Daemon) retryAfterHint(class sched.Class) float64 {
	view := d.admissionView()
	var backlog float64
	for c := class; c <= sched.ClassProduction; c++ {
		backlog += view.ByClass[c].QueuedQPUSeconds
	}
	devs := view.Devices
	if devs < 1 {
		devs = 1
	}
	hint := backlog / float64(devs)
	if hint < 1 {
		hint = 1
	}
	if max := (24 * time.Hour).Seconds(); hint > max {
		hint = max
	}
	return hint
}

// recordRejected creates the terminal rejected job record for a shed
// submission and emits its lifecycle event. The record is owned by the
// session like any accepted job, so status queries and the admin job listing
// surface the rejection, its reason and the retry-after backoff hint.
func (d *Daemon) recordRejected(s *Session, token string, req SubmitRequest, dec admission.Decision, retryAfter float64) *Job {
	now := d.cfg.Clock.Now()
	j := &Job{
		ID:                 d.allocJobIDLocked(),
		Session:            token,
		User:               s.User,
		Class:              req.Class,
		RequestedClass:     req.Class,
		Pattern:            req.Pattern,
		Source:             defaultSource(req.Source),
		Pinned:             req.Device != "",
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		State:              JobRejected,
		AdmissionOutcome:   string(admission.Rejected),
		AdmissionReason:    dec.Reason,
		RetryAfterSeconds:  retryAfter,
		SubmittedAt:        now,
		FinishedAt:         now,
	}
	d.jobs[j.ID] = j
	s.Jobs = append(s.Jobs, j.ID)
	d.rejectedTotal++
	// Bound the retained records: admission absorbs floods, and the flood's
	// rejection records must not become the new unbounded growth — neither
	// in d.jobs nor in the owning session's job list. Counters, telemetry
	// and lifecycle events still see every shed; only the oldest queryable
	// records go (their IDs then read as unknown jobs).
	d.rejectedIDs = append(d.rejectedIDs, j.ID)
	if n := len(d.rejectedIDs) - d.cfg.RejectedHistory; n > 0 {
		for _, id := range d.rejectedIDs[:n] {
			old := d.jobs[id]
			if old == nil {
				continue
			}
			if os := d.sessions[old.Session]; os != nil {
				os.Jobs = removeJobID(os.Jobs, id)
			}
			delete(d.jobs, id)
		}
		d.rejectedIDs = append(d.rejectedIDs[:0:0], d.rejectedIDs[n:]...)
	}
	if d.mJobs != nil {
		if b := d.bJobs[j.Class][JobRejected]; b != nil {
			b.Inc(1)
		} else {
			d.mJobs.Inc(telemetry.Labels{"class": j.Class.String(), "state": string(JobRejected)}, 1)
		}
	}
	d.notify(JobEventRejected, *j)
	return j
}

// removeJobID filters one ID out of a session's job list in place.
func removeJobID(ids []string, id string) []string {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// feedWait feeds a started job's queue wait back into the admission policy
// (stage 4 → stage 1 feedback). It runs under d.mu; observers are leaf code
// that must not call back in.
func (d *Daemon) feedWait(class sched.Class, wait time.Duration, at time.Duration) {
	if d.admitObserver == nil {
		return
	}
	d.admitObserver.Observe(admission.Signal{
		Class:       class,
		At:          at,
		WaitSeconds: wait.Seconds(),
		Slowdown:    0,
	})
}

// feedSlowdown feeds a completed job's slowdown into the admission policy.
func (d *Daemon) feedSlowdown(class sched.Class, slowdown float64, at time.Duration) {
	if d.admitObserver == nil || slowdown <= 0 {
		return
	}
	d.admitObserver.Observe(admission.Signal{
		Class:       class,
		At:          at,
		WaitSeconds: -1,
		Slowdown:    slowdown,
	})
}
