// Package daemon implements the paper's middleware service (§3.3): a
// standalone process on the quantum access node that inserts an abstraction
// layer between user sessions and the QPU task queue. It provides the second
// level of scheduling below Slurm — priority classes with production
// preemption — plus multi-user session management, admin operations, gated
// low-level controls, and the telemetry endpoints of the observability stack.
//
// The daemon manages a fleet of QPU partitions rather than a single device.
// Two composable policy axes govern placement: a Router picks the target
// partition at submission time ("which instance"), and each partition's
// sched.ClassQueue orders the work routed to it ("what order").
//
// One mutex, Daemon.mu, guards all daemon state: sessions, jobs, every
// partition's running slot, routing and admission. Each transition runs in a
// single hold — a submission from admission through route, push and
// dispatch; a task completion from settle through the next dispatch; a
// cancel — so no transition ever observes another half done. The expensive
// work stays outside the lock: decoding and validation precede admission,
// and the device emulates a task before it reports the completion.
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// JobState is the daemon-level job lifecycle. Preempted jobs return to
// queued, so the terminal states are completed, failed, cancelled and
// rejected.
type JobState string

const (
	// JobQueued waits in a class queue.
	JobQueued JobState = "queued"
	// JobRunning is on the device.
	JobRunning JobState = "running"
	// JobCompleted has a result.
	JobCompleted JobState = "completed"
	// JobFailed hit an error.
	JobFailed JobState = "failed"
	// JobCancelled was cancelled by its owner or an admin.
	JobCancelled JobState = "cancelled"
	// JobRejected was shed by the admission stage: it never reached a queue.
	// Terminal from birth; AdmissionReason carries the policy rationale.
	JobRejected JobState = "rejected"
)

// Session is an authenticated user connection. "As the user part of the
// runtime environment connects to the middleware, a unique session is
// created, and a session token is returned" (§3.3).
type Session struct {
	Token     string        `json:"token"`
	User      string        `json:"user"`
	CreatedAt time.Duration `json:"created_at"`
	Jobs      []string      `json:"jobs"`
}

// Job is the daemon's job record.
type Job struct {
	ID      string        `json:"id"`
	Session string        `json:"-"`
	User    string        `json:"user"`
	Class   sched.Class   `json:"-"`
	Pattern sched.Pattern `json:"pattern,omitempty"`
	// Source records where the job entered the daemon ("slurm" for jobs
	// arriving through the batch allocation path, "cloud" for jobs accepted
	// via a cloud interface, …). The daemon "receives jobs from one or more
	// sources" (§3.3); the tag keeps per-source accounting possible.
	Source string `json:"source,omitempty"`
	// Device is the fleet partition the job was routed to. A preempted job
	// may be requeued onto a different partition (cross-partition requeue),
	// in which case Device tracks the current home.
	Device string `json:"device,omitempty"`
	// Pinned marks jobs submitted with an explicit target partition; they
	// are never moved by cross-partition requeue.
	Pinned bool `json:"pinned,omitempty"`
	// RequestedClass is the class the submitter asked for. It differs from
	// Class only when the admission stage down-classed the job.
	RequestedClass sched.Class `json:"-"`
	// AdmissionOutcome is the admission stage's verdict when it was anything
	// other than a plain accept ("downgraded", "rejected"); AdmissionReason
	// carries the policy rationale.
	AdmissionOutcome string `json:"admission_outcome,omitempty"`
	AdmissionReason  string `json:"admission_reason,omitempty"`
	// RetryAfterSeconds is the queue-drain estimate attached to rejected
	// jobs: how long a well-behaved client should back off before retrying.
	// Derived from the admission view's queued expected-QPU backlog at the
	// rejected class and above, spread across the fleet. Zero on every
	// non-rejected record.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
	// ExpectedQPUSeconds is the duration hint used by shortest-first
	// scheduling: the submitter's declared value, or the daemon's own
	// estimate from the validated program when none was given.
	ExpectedQPUSeconds float64  `json:"expected_qpu_seconds"`
	State              JobState `json:"state"`
	// DeadlineSeconds is the submitter's completion deadline relative to
	// submission (0 = none). Deadline-aware priority policies score against
	// it, the slo-guard door consults it, and terminal execute spans are
	// annotated deadline=hit|miss when it is set — jobs without one are
	// reported exactly as before.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// Cache records the partition program-cache outcome of the job's most
	// recent dispatch ("hit" or "miss"). Empty when program caching is
	// disabled (Config.ProgramCache == 0), so existing reports are unchanged.
	Cache string `json:"cache,omitempty"`
	// DeviceTask is the current underlying device task, when running.
	DeviceTask  string        `json:"-"`
	SubmittedAt time.Duration `json:"submitted_at"`
	StartedAt   time.Duration `json:"started_at"`
	FinishedAt  time.Duration `json:"finished_at"`
	Preemptions int           `json:"preemptions"`
	Error       string        `json:"error,omitempty"`

	result []byte
	// res is the completed device result, marshalled lazily: JobResult
	// renders (and memoizes) the JSON on first read, so replays — where no
	// one ever fetches results — skip a per-job reflection-based marshal.
	res *qir.Result
	// prog is the decoded payload, resolved once at submission through the
	// daemon's program cache and reused by every later dispatch (including
	// preemption requeues), so the dispatch loop never re-decodes JSON.
	// Programs are immutable after decode.
	prog *qir.Program
	// progHash is the canonical program fingerprint, memoized alongside prog
	// in the decode cache — the partition program-cache key. Zero means no
	// fingerprint (the job bypasses the cache).
	progHash uint64
	// enqueuedAt is when the job last entered a queue (submission, then each
	// preemption requeue) — the start of its current queued/requeued trace
	// span. Guarded by d.mu like the exported timing fields.
	enqueuedAt time.Duration
	// item is the job's current queue entry, the handle CancelJob removes
	// in O(log n). Guarded by d.mu.
	item *sched.Item
}

// ClassName renders the class for JSON consumers.
func (j *Job) ClassName() string { return j.Class.String() }

// jobPool recycles Job records across replay cells. A thousand-cell sweep
// churns through millions of job records whose lifetimes end with their
// daemon's report; pooling them (via the replay driver's Release call) keeps
// the sweep's live heap proportional to the worker count, not the cell count.
var jobPool = sync.Pool{New: func() any { return new(Job) }}

// newJob takes a zeroed Job record from the pool. Callers overwrite every
// field they use; the pool guarantees the record arrives zeroed.
func newJob() *Job {
	j := jobPool.Get().(*Job)
	*j = Job{}
	return j
}

// Release returns every retained job record to the shared pool and empties
// the daemon's job table. It is safe only once the daemon is quiescent and
// no caller still holds *Job pointers obtained from this daemon — public
// accessors hand out copies, so the one caller with that guarantee is the
// replay driver, which calls Release after extracting its report. Records
// already pruned from the table (bounded rejected history) are simply
// dropped: their pointers may have escaped through RejectedError.
func (d *Daemon) Release() {
	d.mu.Lock()
	for id, j := range d.jobs {
		delete(d.jobs, id)
		*j = Job{} // drop result references before pooling
		jobPool.Put(j)
	}
	d.mu.Unlock()
}

// JobEventType enumerates the job lifecycle transitions the daemon reports to
// a Config.JobListener.
type JobEventType string

const (
	// JobEventSubmitted fires once per accepted submission, before the job
	// becomes visible to dispatch.
	JobEventSubmitted JobEventType = "submitted"
	// JobEventStarted fires when the job begins executing on a partition.
	// A preempted job fires it again on each re-start.
	JobEventStarted JobEventType = "started"
	// JobEventPreempted fires when a production job evicts the running job;
	// the event carries the victim.
	JobEventPreempted JobEventType = "preempted"
	// JobEventRequeued fires when a preempted job re-enters a queue; the
	// snapshot's Device is the partition it was requeued onto (which may
	// differ from where it ran, under cross-partition requeue).
	JobEventRequeued JobEventType = "requeued"
	// JobEventFinished fires once when the job reaches a terminal state
	// (completed, failed or cancelled — see the snapshot's State).
	JobEventFinished JobEventType = "finished"
	// JobEventRejected fires when the admission stage sheds a submission.
	// The job is terminal from birth, so no other event follows it.
	JobEventRejected JobEventType = "rejected"
)

// JobEvent is one lifecycle transition. Job is a point-in-time snapshot; its
// result bytes are not exposed.
type JobEvent struct {
	Type JobEventType
	// At is the simulation time of the transition.
	At time.Duration
	// Job is a copy of the job record at the transition.
	Job Job
}

// Config parameterizes the daemon.
type Config struct {
	// Devices is the managed fleet of QPU partitions sharing the clock
	// (at least one). Device IDs must be unique.
	Devices []*device.Device
	// Router picks the target partition per job. Defaults to least-loaded.
	Router Router
	// Admission is the submit pipeline's first stage: it decides which
	// submissions enter the system at all, and at what class. Defaults to
	// admission.AcceptAll (every valid submission is accepted). Policies
	// that implement admission.Observer receive the SLO feedback signals
	// (queue waits, slowdowns) the dispatch stages produce.
	Admission admission.Policy
	// Order is the queueing stage's within-class order (fifo, fair-share,
	// shortest-first): the tie-break among equal priority keys. Defaults to
	// FIFO.
	Order OrderPolicy
	// Priority is the urgency axis composing with Order: a static per-item
	// key computed at enqueue, with the order policy breaking key ties.
	// Defaults to the constant policy, under which the order alone decides.
	Priority PriorityPolicy
	// Clock is the simulation clock shared with the devices. Required.
	Clock *simclock.Clock
	// AdminToken authenticates the admin plane. Required for admin APIs.
	AdminToken string
	// EnablePreemption lets production jobs preempt running lower-class
	// jobs (the paper's policy; on by default via NewDaemon). Preemption is
	// confined to the partition the production job was routed to.
	EnablePreemption bool
	// AllowedLowLevelOps is the gated allowlist of low-level control
	// operations exposed to integrators (§2.5). Others are rejected.
	AllowedLowLevelOps []string
	// JobListener receives job lifecycle events when non-nil — the hook the
	// loadgen SLO analyzer and trace recorder attach to. The listener runs
	// under Daemon.mu, in transition order: it must return quickly and must
	// not call back into the daemon (schedule follow-up work on the clock
	// instead).
	JobListener func(JobEvent)
	// SpanListener receives simulation-time pipeline and occupancy spans when
	// non-nil — the tracing analogue of JobListener, with the same contract:
	// it runs under Daemon.mu, must return quickly, and must not call back
	// into the daemon. Spans are pure functions of the simulation
	// clock and the scheduling decisions, so attaching a deterministic
	// listener preserves replay determinism.
	SpanListener trace.Listener
	// Flight, when non-nil, is a flight recorder the daemon additionally
	// feeds every span — the bounded in-process trace store behind
	// GET /api/v1/trace and `qctl trace <job>`. Usable with or without a
	// SpanListener.
	Flight *trace.FlightRecorder
	// PipelineSpansOnly restricts emission to the duration-carrying pipeline
	// stages (validate/admission/route/queued/requeued/execute), skipping
	// instant lifecycle marks, dispatch hand-off marks and partition
	// busy/idle occupancy spans. Stage-latency attribution is a pure
	// consumer of the pipeline stages, so a listener that only aggregates
	// (the loadgen SLO analyzer) sets this to halve the span traffic; trace
	// stores and exporters must leave it false.
	PipelineSpansOnly bool
	// ProgramCache bounds each partition's calibration-warm program cache
	// (entries per partition; the cache key is the canonical program
	// fingerprint). A partition that recently ran a program holds warm state
	// for it — calibration for that pulse family, compiled circuit, duration
	// estimate — so a dispatch hitting the cache skips the cold setup cost
	// and the affinity router can steer repeat programs back to warm
	// partitions. Zero (the default) disables caching entirely: no counters,
	// no report fields, no span annotations — output stays byte-identical to
	// a cache-less daemon.
	ProgramCache int
	// SetupSeconds is the cold-setup cost a program-cache miss adds to a
	// dispatch's device occupancy, in QPU seconds; hits pay nothing, and
	// daemon-made duration estimates include it unless the routed partition
	// is already warm. Requires ProgramCache > 0 (with no cache every
	// dispatch would pay it, which models nothing).
	SetupSeconds float64
	// Registry receives daemon metrics when non-nil.
	Registry *telemetry.Registry
	// TSDB receives queue telemetry when non-nil.
	TSDB *telemetry.TSDB
	// Seed drives session-token generation.
	Seed int64
}

// deviceState is one partition's scheduling state. Its mutable fields (the
// running slot and the occupancy edge) are guarded by Daemon.mu; the queue
// and the program cache carry their own leaf locks.
type deviceState struct {
	id    string
	dev   *device.Device
	queue *sched.ClassQueue
	// cache is the partition's calibration-warm program cache, nil when
	// Config.ProgramCache is zero. It carries its own mutex (a leaf lock:
	// nothing is acquired under it).
	cache *progLRU
	// Pre-bound cache counter series (nil without a registry or cache).
	gCacheHits, gCacheMisses, gCacheEvictions *telemetry.BoundSeries

	// running is the job on the partition's device; its DeviceTask is the
	// task whose completion the device listener settles.
	running *Job
	// gQueue and gUtil are pre-bound per-device telemetry series (nil when
	// no registry is configured), so queue-depth emission does not rebuild
	// label keys per dispatch.
	gQueue [3]*telemetry.BoundSeries
	gUtil  *telemetry.BoundSeries
	// occSince is when the partition last flipped between busy and idle —
	// the open edge of its current occupancy span (tracing only).
	occSince time.Duration
}

// Daemon is the middleware service core. The HTTP layer in http.go is a thin
// shell over these methods, so everything is testable without sockets.
type Daemon struct {
	cfg    Config
	router Router
	order  OrderPolicy
	// priority keys each job as it enters a partition queue.
	priority PriorityPolicy

	admitter admission.Policy
	// admitObserver is the admitter's Observer side, when it has one —
	// the stage-4 → stage-1 SLO feedback sink.
	admitObserver admission.Observer
	// admitDetails interns the reason-less admission span annotations
	// ("<policy> <outcome>") so traced accepts don't concatenate per job.
	admitDetails map[admission.Outcome]string

	// fleet and byDevice are immutable after NewDaemon: the partition pool
	// (validated through device.FleetOf) with scheduling state layered on.
	fleet    []*deviceState
	byDevice map[string]*deviceState
	// spec is the one device spec every partition shares (NewDaemon rejects
	// mixed fleets), so a submission is validated and estimated once,
	// wherever it is routed or requeued.
	spec qir.DeviceSpec

	// mu is the daemon's one lock. It guards sessions, jobs and their
	// fields, the partitions' running slots, the accounting maps, and the
	// admission and routing decisions (so stateful policies see submissions
	// in one reproducible order, and a route and its push are atomic).
	// Everything acquired under it is a leaf lock: queues, usage, program
	// caches, router scratch, devices, clock, registry, flight recorder.
	mu       sync.Mutex
	rng      *rand.Rand
	sessions map[string]*Session
	jobs     map[string]*Job
	nextJob  int
	nextSess int

	// accounting. Queue waits are kept as per-class running sums (the only
	// consumer is AdminStatus's mean), not per-job slices: a week-long
	// million-job replay must not grow daemon memory linearly in jobs.
	waitSum      map[sched.Class]time.Duration
	waitCount    map[sched.Class]int
	preemptTotal int
	// usage is the per-user QPU-seconds ledger the fair-share order ranks
	// by, shared by every partition queue; it carries its own leaf lock.
	usage *sched.Usage
	// rejectedTotal counts every admission shed over the daemon's lifetime;
	// rejectedIDs is the FIFO of retained rejected job records, pruned at
	// rejectedHistory.
	rejectedTotal int
	rejectedIDs   []string

	mJobs, mQueueLen, mSessions          *telemetry.Metric
	mWait                                *telemetry.Metric
	mDevQueueLen, mDevUtil               *telemetry.Metric
	mAdmission, mAdmissionRejected       *telemetry.Metric
	mCacheHits, mCacheMisses, mCacheEvic *telemetry.Metric

	// Pre-bound label series for the dispatch hot path, indexed by class.
	// All nil when no registry is configured (BoundSeries methods are
	// nil-safe), so the hot path pays neither label-key rendering nor map
	// allocation per job.
	bWait       [3]*telemetry.BoundSeries
	bJobs       [3]map[JobState]*telemetry.BoundSeries
	bQueueTotal [3]*telemetry.BoundSeries
	bAdmit      [3]map[admission.Outcome]*telemetry.BoundSeries
	bAdmitRej   [3]*telemetry.BoundSeries

	// spanMarks reports whether instant marks and occupancy spans are
	// emitted (false under Config.PipelineSpansOnly).
	spanMarks bool
	// span is the wired trace listener (Config.SpanListener teed with the
	// flight recorder); nil means tracing off and every emission site reduces
	// to one nil check.
	span   trace.Listener
	flight *trace.FlightRecorder
}

// The decode-once program cache: payload bytes → decoded program plus its
// canonical fingerprint. Replay and load generation submit a handful of
// distinct payloads millions of times — across many short-lived daemon
// instances — so the cache is process-wide: a what-if sweep decodes (and
// hashes) each canonical payload once, not once per policy combination.
// Decoding is a pure function of the bytes, and validation verdicts are
// memoized separately in qir keyed by the full spec contents, so sharing
// across daemons cannot leak one fleet's limits into another's. Lookup by
// string(payload) is allocation-free, which is what keeps the hot replay
// path free of per-job hashing: the fingerprint rides the same memo.
type progEntry struct {
	prog *qir.Program
	hash uint64
}

var (
	progMu    sync.Mutex
	progCache = make(map[string]progEntry)
)

// progCacheLimit bounds the decode cache. Replay workloads cycle through a
// small canonical program set; an adversarial stream of unique payloads
// simply resets the cache rather than growing process memory.
const progCacheLimit = 256

// cachedProgram decodes a payload through the process-wide cache, returning
// the shared immutable program and its canonical fingerprint.
func cachedProgram(payload []byte) (*qir.Program, uint64, error) {
	progMu.Lock()
	e, ok := progCache[string(payload)]
	progMu.Unlock()
	if ok {
		return e.prog, e.hash, nil
	}
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload); err != nil {
		return nil, 0, fmt.Errorf("daemon: decoding program: %w", err)
	}
	hash := fingerprint(payload)
	progMu.Lock()
	if len(progCache) >= progCacheLimit {
		progCache = make(map[string]progEntry, progCacheLimit)
	}
	progCache[string(payload)] = progEntry{prog: prog, hash: hash}
	progMu.Unlock()
	return prog, hash, nil
}

// NewDaemon wires the daemon to its device fleet.
func NewDaemon(cfg Config) (*Daemon, error) {
	if len(cfg.Devices) == 0 || cfg.Clock == nil {
		return nil, errors.New("daemon: config requires at least one device and a clock")
	}
	if len(cfg.AllowedLowLevelOps) == 0 {
		cfg.AllowedLowLevelOps = []string{"recalibrate", "qa_check"}
	}
	if cfg.ProgramCache < 0 {
		return nil, fmt.Errorf("daemon: negative program cache capacity %d", cfg.ProgramCache)
	}
	if cfg.SetupSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative setup seconds %g", cfg.SetupSeconds)
	}
	if cfg.SetupSeconds > 0 && cfg.ProgramCache == 0 {
		return nil, errors.New("daemon: SetupSeconds requires ProgramCache > 0 (without a cache every dispatch would pay setup)")
	}
	router := cfg.Router
	if router == nil {
		router = NewLeastLoadedRouter()
	}
	order := cfg.Order
	if order == nil {
		order = fifoOrder{}
	}
	admitter := cfg.Admission
	if admitter == nil {
		admitter = admission.AcceptAll{}
	}
	priority := cfg.Priority
	if priority == nil {
		priority = constantPriority{}
	}
	d := &Daemon{
		cfg:       cfg,
		router:    router,
		order:     order,
		priority:  priority,
		admitter:  admitter,
		byDevice:  make(map[string]*deviceState, len(cfg.Devices)),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		sessions:  make(map[string]*Session),
		jobs:      make(map[string]*Job),
		waitSum:   make(map[sched.Class]time.Duration),
		waitCount: make(map[sched.Class]int),
		usage:     sched.NewUsage(),
	}
	d.admitObserver, _ = admitter.(admission.Observer)
	d.internAdmissionDetails()
	d.flight = cfg.Flight
	if d.flight != nil {
		d.span = trace.Tee(cfg.SpanListener, d.flight.Observe)
	} else {
		d.span = cfg.SpanListener
	}
	d.spanMarks = d.span != nil && !cfg.PipelineSpansOnly
	// FleetOf owns the nil-device and unique-ID invariants.
	fleet, err := device.FleetOf(cfg.Devices...)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	d.spec = fleet.Devices()[0].Spec()
	for _, dev := range fleet.Devices() {
		if !reflect.DeepEqual(dev.Spec(), d.spec) {
			return nil, fmt.Errorf("daemon: partition %q's device spec differs from partition %q's (a fleet shares one spec)",
				dev.ID(), d.fleet[0].id)
		}
		ds := &deviceState{
			id:    dev.ID(),
			dev:   dev,
			queue: sched.NewClassQueue(order.tieBreak(priority), d.usage),
			cache: newProgLRU(cfg.ProgramCache),
		}
		d.fleet = append(d.fleet, ds)
		d.byDevice[ds.id] = ds
	}
	if cfg.Registry != nil {
		d.mJobs = cfg.Registry.MustCounter("daemon_jobs_total", "Daemon jobs by class and final state.")
		d.mQueueLen = cfg.Registry.MustGauge("daemon_queue_length", "Queued daemon jobs by class.")
		d.mSessions = cfg.Registry.MustGauge("daemon_sessions_active", "Open user sessions.")
		d.mWait = cfg.Registry.MustHistogram("daemon_job_wait_seconds", "Queue wait by class.",
			[]float64{1, 5, 15, 60, 300, 1800, 7200})
		d.mDevQueueLen = cfg.Registry.MustGauge("daemon_device_queue_length", "Queued daemon jobs by device and class.")
		d.mDevUtil = cfg.Registry.MustGauge("daemon_device_utilization", "Per-device QPU utilization fraction.")
		d.mAdmission = cfg.Registry.MustCounter("daemon_admission_total", "Admission decisions by class and outcome.")
		d.mAdmissionRejected = cfg.Registry.MustCounter("daemon_admission_rejected_total", "Submissions shed at admission by class and policy.")
		for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
			name := c.String()
			d.bWait[c] = d.mWait.Bind(telemetry.Labels{"class": name})
			d.bQueueTotal[c] = d.mQueueLen.Bind(telemetry.Labels{"class": name})
			d.bJobs[c] = make(map[JobState]*telemetry.BoundSeries, 4)
			for _, st := range []JobState{JobCompleted, JobFailed, JobCancelled, JobRejected} {
				d.bJobs[c][st] = d.mJobs.Bind(telemetry.Labels{"class": name, "state": string(st)})
			}
			d.bAdmit[c] = make(map[admission.Outcome]*telemetry.BoundSeries, 3)
			for _, out := range []admission.Outcome{admission.Accepted, admission.Downgraded, admission.Rejected} {
				d.bAdmit[c][out] = d.mAdmission.Bind(telemetry.Labels{"class": name, "outcome": string(out)})
			}
			d.bAdmitRej[c] = d.mAdmissionRejected.Bind(telemetry.Labels{"class": name, "policy": admitter.Name()})
		}
		for _, ds := range d.fleet {
			for c := sched.ClassDev; c <= sched.ClassProduction; c++ {
				ds.gQueue[c] = d.mDevQueueLen.Bind(telemetry.Labels{"device": ds.id, "class": c.String()})
			}
			ds.gUtil = d.mDevUtil.Bind(telemetry.Labels{"device": ds.id})
		}
		// Cache counters exist only when caching is on, so a cache-less
		// daemon's metrics output is unchanged.
		if cfg.ProgramCache > 0 {
			d.mCacheHits = cfg.Registry.MustCounter("daemon_program_cache_hits_total", "Program-cache hits at dispatch, by device.")
			d.mCacheMisses = cfg.Registry.MustCounter("daemon_program_cache_misses_total", "Program-cache misses at dispatch, by device.")
			d.mCacheEvic = cfg.Registry.MustCounter("daemon_program_cache_evictions_total", "Program-cache LRU evictions, by device.")
			for _, ds := range d.fleet {
				ds.gCacheHits = d.mCacheHits.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheMisses = d.mCacheMisses.Bind(telemetry.Labels{"device": ds.id})
				ds.gCacheEvictions = d.mCacheEvic.Bind(telemetry.Labels{"device": ds.id})
			}
		}
	}
	for _, ds := range d.fleet {
		ds.dev.SetTaskListener(d.onDeviceTask)
	}
	return d, nil
}

// notify delivers a lifecycle event snapshot to the configured listener. The
// caller holds d.mu, so the snapshot cannot tear against a concurrent state
// change and listeners must not call back into the daemon (see
// Config.JobListener).
func (d *Daemon) notify(t JobEventType, j Job) {
	if d.cfg.JobListener == nil {
		return
	}
	d.cfg.JobListener(JobEvent{Type: t, At: d.cfg.Clock.Now(), Job: j})
}

// Devices lists the managed fleet in routing order.
func (d *Daemon) Devices() []*device.Device {
	out := make([]*device.Device, len(d.fleet))
	for i, ds := range d.fleet {
		out[i] = ds.dev
	}
	return out
}

// RouterName reports the active routing policy.
func (d *Daemon) RouterName() string { return d.router.Name() }

// AdmissionName reports the active admission policy.
func (d *Daemon) AdmissionName() string { return d.admitter.Name() }

// OrderName reports the active within-class queueing order.
func (d *Daemon) OrderName() string { return d.order.Name() }

// PriorityName reports the active priority (urgency key) policy.
func (d *Daemon) PriorityName() string { return d.priority.Name() }

// priorityStatusName renders the priority axis for status reports: empty
// under the constant default, so reports predating the axis are unchanged.
func (d *Daemon) priorityStatusName() string {
	if _, constant := d.priority.(constantPriority); constant {
		return ""
	}
	return d.priority.Name()
}

// primary returns the first partition — the whole fleet in single-device
// deployments, and the back-compat answer for endpoints that predate fleets.
func (d *Daemon) primary() *deviceState { return d.fleet[0] }

// --- sessions ---

// OpenSession creates a session for a user and returns its token.
func (d *Daemon) OpenSession(user string) (*Session, error) {
	if user == "" {
		return nil, errors.New("daemon: session requires a user name")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.nextSess++
	s := &Session{
		Token:     fmt.Sprintf("sess-%d-%08x", d.nextSess, d.rng.Uint32()),
		User:      user,
		CreatedAt: d.cfg.Clock.Now(),
	}
	d.sessions[s.Token] = s
	if d.mSessions != nil {
		d.mSessions.Set(nil, float64(len(d.sessions)))
	}
	return s, nil
}

// CloseSession ends a session; its queued jobs are cancelled, running jobs
// are left to finish (accounting continuity for the hosting site).
func (d *Daemon) CloseSession(token string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[token]
	if !ok {
		return fmt.Errorf("daemon: unknown session")
	}
	delete(d.sessions, token)
	for _, id := range s.Jobs {
		if j := d.jobs[id]; j != nil && j.State == JobQueued {
			d.cancel(j)
		}
	}
	if d.mSessions != nil {
		d.mSessions.Set(nil, float64(len(d.sessions)))
	}
	d.emitQueueTelemetry()
	return nil
}

// session validates a token.
func (d *Daemon) session(token string) (*Session, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s, ok := d.sessions[token]
	if !ok {
		return nil, errors.New("daemon: invalid session token")
	}
	return s, nil
}

// --- job submission and scheduling ---

// SubmitRequest is a job submission.
type SubmitRequest struct {
	// Program is the serialized qir.Program payload.
	Program []byte
	// Class is the queue class; use ClassFromSlurmPriority when the job
	// arrives from a Slurm allocation.
	Class sched.Class
	// Pattern is the optional Table 1 workload hint.
	Pattern sched.Pattern
	// Source labels the submission path ("slurm", "cloud", …). Empty
	// defaults to "slurm", the primary intake the paper describes.
	Source string
	// Device pins the job to a named fleet partition, bypassing the
	// router. Empty lets the router pick.
	Device string
	// ExpectedQPUSeconds optionally declares how long the job will hold
	// the QPU. When zero the daemon estimates it from the program and the
	// target device spec, so the hint is always available to the
	// shortest-first policy.
	ExpectedQPUSeconds float64
	// DeadlineSeconds optionally declares the submitter's completion
	// deadline, in seconds from submission. Zero means none: the job is
	// scored against per-class fallback contracts by deadline-aware
	// priority policies and excluded from deadline-hit accounting.
	DeadlineSeconds float64
}

// Submit walks a submission through the four pipeline stages (see
// pipeline.go): the program is decoded, validated and estimated once against
// the fleet's one spec, then admission decides whether — and at what class —
// the job enters, routing picks its partition, queueing inserts it under the
// within-class order, and dispatch runs the partition's loop. A shed
// submission returns a *RejectedError carrying the terminal rejected job
// record.
func (d *Daemon) Submit(token string, req SubmitRequest) (*Job, error) {
	s, err := d.session(token)
	if err != nil {
		return nil, err
	}
	if req.Class < sched.ClassDev || req.Class > sched.ClassProduction {
		return nil, fmt.Errorf("daemon: invalid class %d", req.Class)
	}
	if req.ExpectedQPUSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative expected QPU seconds %g", req.ExpectedQPUSeconds)
	}
	if req.DeadlineSeconds < 0 {
		return nil, fmt.Errorf("daemon: negative deadline seconds %g", req.DeadlineSeconds)
	}
	// Pipeline-stage timestamps for tracing, buffered in locals — the job ID
	// the spans carry is only minted after admission. In pure replay the
	// stages collapse to instants (the clock does not advance inside Submit);
	// under the live wall-clock pump they carry real deliberation time.
	traced := d.traced()
	var tSubmit, tValidate, tAdmit time.Duration
	if traced {
		tSubmit = d.cfg.Clock.Now()
	}
	// Validation precedes admission so a submission the fleet cannot run
	// (undecodable, bad pin, invalid program) cannot drain a stateful
	// policy's quota. Every partition shares d.spec, so the one check holds
	// wherever routing or a later requeue places the job.
	prog, progHash, err := cachedProgram(req.Program)
	if err != nil {
		return nil, err
	}
	var pinned *deviceState
	if req.Device != "" {
		if pinned, err = d.lookupDevice(req.Device); err != nil {
			return nil, err
		}
	}
	if err := qir.ValidateCached(prog, &d.spec); err != nil {
		return nil, fmt.Errorf("daemon: program rejected: %w", err)
	}
	// Resolve the duration hint before admission too, so policies — and the
	// terminal record of a shed submission — see the daemon's estimate, not
	// a missing hint.
	estimated := req.ExpectedQPUSeconds == 0
	if estimated {
		req.ExpectedQPUSeconds = prog.EstimatedQPUSeconds(&d.spec)
	}
	if traced {
		tValidate = d.cfg.Clock.Now()
	}
	// Stages 1–4 run in one hold of d.mu: admission sees a load view no
	// other submission can change before this one is queued, and the route
	// and its push are atomic, so concurrent submissions cannot herd onto
	// one partition or overshoot a depth cap.
	d.mu.Lock()
	defer d.mu.Unlock()
	// Stage 1: admission. Pins bypass the router, not the door; a rejected
	// submission terminates here with a queryable job record.
	dec := d.admitStage(req, s.User)
	if traced {
		tAdmit = d.cfg.Clock.Now()
	}
	if dec.Outcome == admission.Rejected {
		j := d.recordRejected(s, token, req, dec, d.retryAfterHint(req.Class))
		if traced {
			cls := req.Class.String()
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageValidate, Class: cls, Start: tSubmit, End: tValidate})
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageAdmission, Class: cls, Start: tValidate, End: tAdmit,
				Detail: d.admissionDetail(dec)})
			if d.spanMarks {
				d.emitSpan(trace.Span{Job: j.ID, Stage: trace.MarkRejected, Class: cls, Start: j.FinishedAt, End: j.FinishedAt})
			}
		}
		return nil, &RejectedError{Job: j, Reason: dec.Reason}
	}
	// Enforce the Decision contract on custom policies before the class is
	// acted on: Accepted keeps the requested class (the zero Class value is
	// ClassDev, so an unset field must not silently down-class the job),
	// Downgraded must go strictly down and stay in range.
	switch {
	case dec.Outcome == admission.Accepted && dec.Class != req.Class:
		return nil, fmt.Errorf("daemon: admission policy %q accepted a %s job at class %d (use the Downgraded outcome to change class)",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome == admission.Downgraded && (dec.Class < sched.ClassDev || dec.Class >= req.Class):
		return nil, fmt.Errorf("daemon: admission policy %q downgraded a %s job to invalid class %d",
			d.admitter.Name(), req.Class, dec.Class)
	case dec.Outcome != admission.Accepted && dec.Outcome != admission.Downgraded:
		return nil, fmt.Errorf("daemon: admission policy %q returned unknown outcome %q", d.admitter.Name(), dec.Outcome)
	}
	class := dec.Class
	j := newJob()
	*j = Job{
		Session:            token,
		User:               s.User,
		Class:              class,
		RequestedClass:     req.Class,
		Pattern:            req.Pattern,
		Source:             defaultSource(req.Source),
		Pinned:             pinned != nil,
		ExpectedQPUSeconds: req.ExpectedQPUSeconds,
		State:              JobQueued,
		DeadlineSeconds:    req.DeadlineSeconds,
		prog:               prog,
		progHash:           progHash,
	}
	if dec.Outcome != admission.Accepted {
		j.AdmissionOutcome = string(dec.Outcome)
		j.AdmissionReason = dec.Reason
	}
	// Stage 2: routing. A pin bypasses the router.
	ds := pinned
	if ds == nil {
		if ds, err = d.route(j); err != nil {
			return nil, err
		}
	}
	// Tighten the daemon-made estimate with the setup model: a cold dispatch
	// occupies the device for setup + execution, so the hint the shortest-
	// first order and admission policies see should include it — unless the
	// routed partition is already warm for this program, in which case the
	// hit will skip setup and the bare execution estimate is the tight one.
	// (Submitter-declared hints are never touched; SetupSeconds > 0 implies
	// caching is on, so the cache-less path is unchanged.)
	if estimated && d.cfg.SetupSeconds > 0 && !ds.cache.contains(progHash) {
		j.ExpectedQPUSeconds += d.cfg.SetupSeconds
	}
	now := d.cfg.Clock.Now()
	j.ID = d.allocJobIDLocked()
	j.Device = ds.id
	j.SubmittedAt = now
	j.enqueuedAt = now
	d.jobs[j.ID] = j
	s.Jobs = append(s.Jobs, j.ID)
	// "submitted" always precedes "started" in listener order.
	d.notify(JobEventSubmitted, *j)
	if traced {
		cls := class.String()
		routeDetail := d.router.Name()
		if pinned != nil {
			routeDetail = "pinned"
		}
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageValidate, Class: cls, Start: tSubmit, End: tValidate})
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageAdmission, Class: cls, Start: tValidate, End: tAdmit,
			Detail: d.admissionDetail(dec)})
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageRoute, Class: cls, Device: ds.id,
			Start: tAdmit, End: now, Detail: routeDetail})
	}
	// Stage 3: queueing — the partition's ClassQueue holds the job under
	// class priority, ranked within the class by its priority key and the
	// order's tie-break. Stage 4: dispatch.
	if err := ds.queue.Push(d.queueItemLocked(j)); err != nil {
		return nil, err
	}
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
	cp := *j
	return &cp, nil
}

// route asks the router for an unpinned job's partition from a point-in-time
// fleet snapshot. Routers see the job's own record — class, pattern and
// program fingerprint set; ID, device and submission time not yet.
func (d *Daemon) route(j *Job) (*deviceState, error) {
	if len(d.fleet) == 1 {
		return d.fleet[0], nil
	}
	idx := d.router.Pick(j, d.fleetInfosLocked())
	if idx < 0 || idx >= len(d.fleet) {
		return nil, fmt.Errorf("daemon: router %q picked invalid device index %d", d.router.Name(), idx)
	}
	return d.fleet[idx], nil
}

// fleetInfosLocked builds the router's point-in-time fleet load view — the
// single definition shared by routing and requeue, so the two can never
// disagree about what counts as load.
func (d *Daemon) fleetInfosLocked() []DeviceInfo {
	infos := make([]DeviceInfo, len(d.fleet))
	for i, ds := range d.fleet {
		infos[i] = DeviceInfo{
			ID:     ds.id,
			Index:  i,
			Status: ds.dev.Status(),
			Queued: ds.queue.Len(),
			cache:  ds.cache,
		}
		if ds.running != nil {
			infos[i].Busy = true
			infos[i].RunningClass = ds.running.Class
		}
	}
	return infos
}

func (d *Daemon) deviceIDs() []string {
	out := make([]string, len(d.fleet))
	for i, ds := range d.fleet {
		out[i] = ds.id
	}
	return out
}

// lookupDevice resolves a partition ID, listing the valid IDs on a miss.
func (d *Daemon) lookupDevice(id string) (*deviceState, error) {
	ds, ok := d.byDevice[id]
	if !ok {
		return nil, fmt.Errorf("daemon: unknown device %q (have: %s)", id, strings.Join(d.deviceIDs(), ", "))
	}
	return ds, nil
}

// queueLens snapshots a partition queue's depth by class name.
func queueLens(q *sched.ClassQueue) map[string]int {
	counts, _, _, _ := q.ClassLoads()
	return map[string]int{
		"production": counts[sched.ClassProduction],
		"test":       counts[sched.ClassTest],
		"dev":        counts[sched.ClassDev],
	}
}

// allocJobIDLocked mints the next job ID — the single definition of the ID
// scheme, shared by accepted and rejected records. Caller holds d.mu.
func (d *Daemon) allocJobIDLocked() string {
	d.nextJob++
	return "job-" + strconv.Itoa(d.nextJob)
}

// defaultSource applies the default intake label ("slurm", the primary
// intake the paper describes) to accepted and rejected records alike.
func defaultSource(s string) string {
	if s == "" {
		return "slurm"
	}
	return s
}

// queueItemLocked builds the scheduler item for a job's next enqueue — the
// class, owner, hints and the priority key the queue ranks by — and records
// it as the job's current item (the handle CancelJob removes). Caller holds
// d.mu.
func (d *Daemon) queueItemLocked(j *Job) *sched.Item {
	it := &sched.Item{
		ID:          j.ID,
		Class:       j.Class,
		User:        j.User,
		Enqueued:    j.SubmittedAt,
		ExpectedQPU: simclock.Seconds(j.ExpectedQPUSeconds),
		Payload:     j,
	}
	if j.DeadlineSeconds > 0 {
		// The absolute deadline is anchored to the original submission, so a
		// preemption requeue keeps — not resets — the job's urgency.
		it.Deadline = j.SubmittedAt + simclock.Seconds(j.DeadlineSeconds)
	}
	it.Key = d.priority.Key(it)
	j.item = it
	return it
}

// dispatchDevice runs the partition's dispatch loop until it makes no more
// progress. Caller holds d.mu.
func (d *Daemon) dispatchDevice(ds *deviceState) {
	for d.dispatchOnce(ds) {
	}
}

// dispatchOnce makes one dispatch attempt on the partition: preempt a
// running lower-class job when a production job waits, or start the next
// queued job if the partition is idle. It reports whether it changed state
// (and the loop should try again). Every queued item belongs to a queued
// job: a cancel removes the entry in the same hold that flips the state.
func (d *Daemon) dispatchOnce(ds *deviceState) bool {
	// Hold the queue through maintenance windows: jobs wait rather than
	// fail, and maintenance_off re-dispatches.
	if ds.dev.Status() == device.StatusMaintenance {
		return false
	}
	next := ds.queue.Peek()
	if next == nil {
		return false
	}
	if run := ds.running; run != nil {
		if d.cfg.EnablePreemption && sched.ShouldPreempt(next.Class, run.Class) {
			return d.preempt(ds, run)
		}
		return false
	}
	j := ds.queue.Pop().Payload.(*Job)
	j.item = nil // out of the queue: let the item be collected
	// Consult the partition's program cache at the moment of dispatch: a warm
	// entry means this partition ran the program recently and skips the cold
	// setup cost; a miss warms the cache (possibly evicting the LRU entry)
	// and pays Config.SetupSeconds of extra device occupancy. The outcome is
	// recorded on the job before the Started event fires, so listeners (the
	// loadgen SLO analyzer) see it on every start.
	var setup float64
	if ds.cache != nil && j.progHash != 0 {
		hit, evicted := ds.cache.touch(j.progHash)
		if hit {
			j.Cache = cacheHit
			ds.gCacheHits.Inc(1)
		} else {
			j.Cache = cacheMiss
			setup = d.cfg.SetupSeconds
			ds.gCacheMisses.Inc(1)
			if evicted {
				ds.gCacheEvictions.Inc(1)
			}
		}
	}
	// The program was decoded at submission and validated against the
	// fleet's one spec, so dispatch reuses the decode on any partition. The
	// task is registered in this same hold, so its completion cannot
	// overtake the bookkeeping.
	taskID, err := ds.dev.SubmitWithSetup(j.prog, setup)
	if err != nil {
		// Submission failed (validation drift, maintenance window, ...).
		d.finishJob(j, JobFailed, err)
		return true
	}
	d.startJob(ds, j, taskID)
	d.emitQueueTelemetry()
	return true
}

// startJob puts a job whose device task was just submitted into the
// partition's running slot.
func (d *Daemon) startJob(ds *deviceState, j *Job, taskID string) {
	now := d.cfg.Clock.Now()
	ds.running = j
	j.State = JobRunning
	j.StartedAt = now
	j.DeviceTask = taskID
	wait := now - j.SubmittedAt
	d.waitSum[j.Class] += wait
	d.waitCount[j.Class]++
	d.bWait[j.Class].Observe(wait.Seconds())
	d.feedWait(j.Class, wait, now)
	d.notify(JobEventStarted, *j)
	if d.traced() {
		cls := j.Class.String()
		if d.spanMarks {
			// Close the partition's idle occupancy span.
			if now > ds.occSince {
				d.emitSpan(trace.Span{Stage: trace.StageIdle, Device: ds.id, Start: ds.occSince, End: now})
			}
			ds.occSince = now
		}
		d.emitSpan(trace.Span{Job: j.ID, Stage: waitStage(j), Class: cls, Device: ds.id,
			Start: j.enqueuedAt, End: now, Detail: cacheDetail(j.Cache)})
		if d.spanMarks {
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageDispatch, Class: cls, Device: ds.id,
				Start: now, End: now, Detail: taskID})
		}
	}
}

// releaseSlot empties the partition's running slot and closes its busy
// occupancy span.
func (d *Daemon) releaseSlot(ds *deviceState) {
	j := ds.running
	ds.running = nil
	if d.spanMarks {
		now := d.cfg.Clock.Now()
		d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageBusy, Class: j.Class.String(),
			Device: ds.id, Start: ds.occSince, End: now})
		ds.occSince = now
	}
}

// preempt evicts the partition's running job for a waiting production job:
// it withdraws the victim's device task and requeues the victim, on an idle
// partition when the router finds one. It reports false when the task has
// already ended on its own; that completion is on its way to onDeviceTask,
// which re-dispatches the partition.
func (d *Daemon) preempt(ds *deviceState, run *Job) bool {
	if ds.dev.Cancel(run.DeviceTask) != nil {
		return false
	}
	run.Preemptions++
	d.preemptTotal++
	d.notify(JobEventPreempted, *run)
	d.releaseSlot(ds)
	now := d.cfg.Clock.Now()
	run.State = JobQueued
	run.DeviceTask = ""
	run.enqueuedAt = now
	if d.traced() {
		cls := run.Class.String()
		d.emitSpan(trace.Span{Job: run.ID, Stage: trace.StageExecute, Class: cls, Device: ds.id,
			Start: run.StartedAt, End: now, Detail: "preempted"})
		if d.spanMarks {
			d.emitSpan(trace.Span{Job: run.ID, Stage: trace.MarkPreempted, Class: cls, Device: ds.id,
				Start: now, End: now})
		}
	}
	// Cross-partition requeue: if another idle partition can take the
	// victim, re-route it through the router rather than pinning it behind
	// the production job that evicted it. The new queue item keeps the
	// original submit time as Enqueued, so every order but constant-priority
	// fifo (push order) keeps the victim's seniority.
	target := d.requeuePartition(run, ds)
	run.Device = target.id
	d.notify(JobEventRequeued, *run)
	if d.spanMarks {
		d.emitSpan(trace.Span{Job: run.ID, Stage: trace.MarkRequeued, Class: run.Class.String(),
			Device: target.id, Start: now, End: now})
	}
	_ = target.queue.Push(d.queueItemLocked(run)) // a fresh item of an admitted job: cannot fail
	if target != ds {
		d.dispatchDevice(target)
	}
	d.emitQueueTelemetry()
	return true
}

// onDeviceTask is the fleet-wide device listener. The device calls it only
// for tasks that end on their own (completed or failed), outside every
// device lock. It settles the partition's running job and re-dispatches the
// partition; a task the daemon is not running (a FleetOf-wrapped device's
// own work) is ignored.
func (d *Daemon) onDeviceTask(deviceID, taskID string, state device.TaskState) {
	ds, ok := d.byDevice[deviceID]
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	j := ds.running
	if j == nil || j.DeviceTask != taskID {
		return
	}
	d.releaseSlot(ds)
	res, err := ds.dev.TaskResult(taskID)
	if state == device.TaskCompleted && err == nil {
		d.usage.Add(j.User, res.QPUSeconds)
		j.res = res
		d.finishJob(j, JobCompleted, nil)
	} else {
		d.finishJob(j, JobFailed, err)
	}
	d.emitQueueTelemetry()
	d.dispatchDevice(ds)
}

// requeuePartition picks where a preempted job waits next. The job stays on
// its original partition unless it is unpinned, the fleet has more than one
// partition, AND some other partition is completely idle — then the router
// re-picks for the job from a fresh fleet snapshot (work lost to preemption
// flows to idle capacity instead of queueing behind its preemptor). The
// router's pick is honored only when it lands on such an idle partition: a
// load-blind pick (round-robin pointing at a backlogged partition) must not
// strand the victim somewhere worse than where it was.
func (d *Daemon) requeuePartition(j *Job, orig *deviceState) *deviceState {
	if len(d.fleet) == 1 || j.Pinned {
		return orig
	}
	infos := d.fleetInfosLocked()
	// idleTarget reports whether partition i can absorb the victim now: not
	// the original, online, and zero load.
	idleTarget := func(i int) bool {
		return d.fleet[i] != orig && infos[i].Status == device.StatusOnline && infos[i].load() == 0
	}
	idleElsewhere := false
	for i := range infos {
		if idleTarget(i) {
			idleElsewhere = true
			break
		}
	}
	if !idleElsewhere {
		return orig
	}
	idx := d.router.Pick(j, infos)
	if idx < 0 || idx >= len(d.fleet) || !idleTarget(idx) {
		return orig
	}
	return d.fleet[idx]
}

// finishJob is the single place a job turns terminal; a job that already is
// keeps its first terminal state.
func (d *Daemon) finishJob(j *Job, state JobState, err error) {
	if j.State == JobCompleted || j.State == JobFailed || j.State == JobCancelled || j.State == JobRejected {
		return
	}
	prior := j.State
	j.State = state
	j.FinishedAt = d.cfg.Clock.Now()
	if err != nil {
		j.Error = err.Error()
	}
	if d.mJobs != nil {
		if b := d.bJobs[j.Class][state]; b != nil {
			b.Inc(1)
		} else {
			d.mJobs.Inc(telemetry.Labels{"class": j.Class.String(), "state": string(state)}, 1)
		}
	}
	if state == JobCompleted && j.ExpectedQPUSeconds > 0 {
		d.feedSlowdown(j.Class, (j.FinishedAt-j.SubmittedAt).Seconds()/j.ExpectedQPUSeconds, j.FinishedAt)
	}
	d.notify(JobEventFinished, *j)
	if d.traced() {
		cls := j.Class.String()
		// Deadline-carrying jobs annotate their terminal span with the
		// verdict; jobs without a deadline keep the bare detail, so traces
		// from deadline-less runs are unchanged.
		detail := string(state)
		if j.DeadlineSeconds > 0 {
			if state == JobCompleted && j.FinishedAt <= j.SubmittedAt+simclock.Seconds(j.DeadlineSeconds) {
				detail += " deadline=hit"
			} else {
				detail += " deadline=miss"
			}
		}
		switch prior {
		case JobRunning:
			d.emitSpan(trace.Span{Job: j.ID, Stage: trace.StageExecute, Class: cls, Device: j.Device,
				Start: j.StartedAt, End: j.FinishedAt, Detail: detail})
		case JobQueued:
			// Ended without running: cancelled while waiting, or refused by
			// the device at dispatch.
			d.emitSpan(trace.Span{Job: j.ID, Stage: waitStage(j), Class: cls, Device: j.Device,
				Start: j.enqueuedAt, End: j.FinishedAt, Detail: detail})
		}
		if d.spanMarks {
			d.emitSpan(trace.Span{Job: j.ID, Stage: terminalMark(state), Class: cls, Device: j.Device,
				Start: j.FinishedAt, End: j.FinishedAt})
		}
	}
}

// CancelJob cancels a queued or running job. Sessions may cancel their own
// jobs; admin-initiated cancellations pass force=true.
func (d *Daemon) CancelJob(token, jobID string, force bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[jobID]
	if !ok {
		return fmt.Errorf("daemon: unknown job %q", jobID)
	}
	if !force && j.Session != token {
		return errors.New("daemon: job belongs to another session")
	}
	if !d.cancel(j) {
		return fmt.Errorf("daemon: job %s already %s", jobID, j.State)
	}
	d.emitQueueTelemetry()
	return nil
}

// cancel turns a queued or running job cancelled, reporting false when the
// job is already terminal. A queued job leaves its queue in the same hold. A
// running job's device task is withdrawn and the partition re-dispatched;
// when the task has already ended on its own, its completion (on its way to
// onDeviceTask) frees the slot instead.
func (d *Daemon) cancel(j *Job) bool {
	ds := d.byDevice[j.Device]
	switch j.State {
	case JobQueued:
		d.finishJob(j, JobCancelled, nil)
		ds.queue.Remove(j.item)
		j.item = nil
	case JobRunning:
		d.finishJob(j, JobCancelled, nil)
		if ds.dev.Cancel(j.DeviceTask) == nil {
			d.releaseSlot(ds)
			d.dispatchDevice(ds)
		}
	default:
		return false
	}
	return true
}

// JobStatus returns a session's view of a job.
func (d *Daemon) JobStatus(token, jobID string) (*Job, error) {
	if _, err := d.session(token); err != nil {
		return nil, err
	}
	d.mu.Lock()
	j, ok := d.jobs[jobID]
	if !ok || j.Session != token {
		d.mu.Unlock()
		return nil, fmt.Errorf("daemon: unknown job %q", jobID)
	}
	cp := *j
	d.mu.Unlock()
	return &cp, nil
}

// JobResult returns the serialized result of a completed job.
func (d *Daemon) JobResult(token, jobID string) ([]byte, error) {
	j, err := d.JobStatus(token, jobID)
	if err != nil {
		return nil, err
	}
	switch j.State {
	case JobCompleted:
		d.mu.Lock()
		rec := d.jobs[jobID]
		if rec.result == nil && rec.res != nil {
			raw, mErr := json.Marshal(rec.res)
			if mErr != nil {
				d.mu.Unlock()
				return nil, mErr
			}
			rec.result = raw
		}
		res := rec.result
		d.mu.Unlock()
		return res, nil
	case JobFailed:
		return nil, fmt.Errorf("daemon: job failed: %s", j.Error)
	case JobCancelled:
		return nil, errors.New("daemon: job was cancelled")
	default:
		return nil, qrmi.ErrResultNotReady
	}
}

// --- admin plane ---

// AdminAuthorized checks the admin token.
func (d *Daemon) AdminAuthorized(token string) bool {
	return d.cfg.AdminToken != "" && token == d.cfg.AdminToken
}

// DeviceReport is the per-partition slice of the admin overview: the device
// snapshot (which carries status and utilization) plus this partition's
// daemon-level queue depths.
type DeviceReport struct {
	ID           string          `json:"id"`
	Device       device.Snapshot `json:"device"`
	QueuedByName map[string]int  `json:"queued_by_class"`
	Running      string          `json:"running_job,omitempty"`
}

// StatusReport is the admin overview. The top-level Device/QueuedByName/
// Running fields aggregate the fleet (Device is the first partition, kept
// for single-device consumers); Devices carries the per-partition detail.
type StatusReport struct {
	Device  device.Snapshot `json:"device"`
	Devices []DeviceReport  `json:"devices"`
	Router  string          `json:"router"`
	// Admission and Scheduler name the other two policy axes of the submit
	// pipeline (stage 1 and stage 3); Rejected counts submissions the
	// admission stage shed over the daemon's lifetime.
	Admission string `json:"admission"`
	Scheduler string `json:"scheduler"`
	// Priority names the dynamic-urgency axis composing with the scheduler
	// order (omitted for the constant default).
	Priority     string                   `json:"priority,omitempty"`
	Rejected     int                      `json:"rejected_total"`
	Sessions     int                      `json:"sessions"`
	QueuedByName map[string]int           `json:"queued_by_class"`
	Running      string                   `json:"running_job,omitempty"`
	Preemptions  int                      `json:"preemptions_total"`
	MeanWait     map[string]time.Duration `json:"mean_wait_by_class"`
	// JobsBySource counts all jobs ever accepted per intake path, so the
	// hosting site can see how much work arrives via Slurm versus a cloud
	// interface (§3.3 envisions multiple sources feeding one daemon).
	JobsBySource map[string]int `json:"jobs_by_source"`
}

// AdminStatus summarizes the whole node.
func (d *Daemon) AdminStatus() StatusReport {
	rep := StatusReport{
		Router:       d.router.Name(),
		Admission:    d.admitter.Name(),
		Scheduler:    d.order.Name(),
		Priority:     d.priorityStatusName(),
		QueuedByName: map[string]int{"production": 0, "test": 0, "dev": 0},
		MeanWait:     make(map[string]time.Duration),
		JobsBySource: make(map[string]int),
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ds := range d.fleet {
		dr := DeviceReport{
			ID:           ds.id,
			Device:       ds.dev.AdminSnapshot(),
			QueuedByName: queueLens(ds.queue),
		}
		if ds.running != nil {
			dr.Running = ds.running.ID
		}
		for name, n := range dr.QueuedByName {
			rep.QueuedByName[name] += n
		}
		if rep.Running == "" && dr.Running != "" {
			rep.Running = dr.Running
		}
		rep.Devices = append(rep.Devices, dr)
	}
	rep.Device = rep.Devices[0].Device
	rep.Sessions = len(d.sessions)
	rep.Preemptions = d.preemptTotal
	rep.Rejected = d.rejectedTotal
	for _, j := range d.jobs {
		rep.JobsBySource[j.Source]++
	}
	for class, n := range d.waitCount {
		if n > 0 {
			rep.MeanWait[class.String()] = d.waitSum[class] / time.Duration(n)
		}
	}
	return rep
}

// ListJobs returns all job snapshots, newest first, for the admin plane.
func (d *Daemon) ListJobs() []*Job {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Job, 0, len(d.jobs))
	for _, j := range d.jobs {
		cp := *j
		out = append(out, &cp)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmittedAt > out[b].SubmittedAt })
	return out
}

// LowLevelOp executes a gated low-level control operation (§2.5) across the
// whole fleet: only allowlisted operations pass, providing the safeguard
// indirection the paper argues must live at the daemon.
func (d *Daemon) LowLevelOp(op string) (string, error) {
	return d.lowLevelOp(op, d.fleet)
}

// LowLevelOpDevice executes a gated low-level control operation on one named
// partition.
func (d *Daemon) LowLevelOpDevice(op, deviceID string) (string, error) {
	ds, err := d.lookupDevice(deviceID)
	if err != nil {
		return "", err
	}
	return d.lowLevelOp(op, []*deviceState{ds})
}

func (d *Daemon) lowLevelOp(op string, targets []*deviceState) (string, error) {
	allowed := false
	for _, a := range d.cfg.AllowedLowLevelOps {
		if a == op {
			allowed = true
			break
		}
	}
	if !allowed {
		return "", fmt.Errorf("daemon: low-level op %q not allowed on this site (allowed: %v)", op, d.cfg.AllowedLowLevelOps)
	}
	switch op {
	case "recalibrate":
		for _, ds := range targets {
			ds.dev.Recalibrate()
		}
		return "recalibrated", nil
	case "qa_check":
		healthy := true
		for _, ds := range targets {
			if !ds.dev.RunQACheck() {
				healthy = false
			}
		}
		if healthy {
			return "qa passed", nil
		}
		return "qa failed: device degraded", nil
	case "maintenance_on":
		for _, ds := range targets {
			ds.dev.StartMaintenance()
		}
		return "maintenance started", nil
	case "maintenance_off":
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, ds := range targets {
			ds.dev.EndMaintenance()
			d.dispatchDevice(ds)
		}
		return "maintenance ended", nil
	default:
		return "", fmt.Errorf("daemon: low-level op %q allowlisted but not implemented", op)
	}
}

func (d *Daemon) emitQueueTelemetry() {
	if d.mQueueLen == nil && d.cfg.TSDB == nil {
		return
	}
	now := d.cfg.Clock.Now()
	var totals [sched.ClassProduction + 1]float64
	for _, ds := range d.fleet {
		counts, _, _, _ := ds.queue.ClassLoads()
		for c, n := range counts {
			totals[c] += float64(n)
			ds.gQueue[c].Set(float64(n))
			if d.cfg.TSDB != nil {
				d.cfg.TSDB.Append("daemon_device_queue_length",
					telemetry.Labels{"device": ds.id, "class": sched.Class(c).String()}, now, float64(n))
			}
		}
		if ds.gUtil != nil {
			ds.gUtil.Set(ds.dev.Utilization())
		}
	}
	for c, total := range totals {
		d.bQueueTotal[c].Set(total)
		if d.cfg.TSDB != nil {
			d.cfg.TSDB.Append("daemon_queue_length", telemetry.Labels{"class": sched.Class(c).String()}, now, total)
		}
	}
}

// QueueLengths reports current queue depth by class, summed over the fleet.
func (d *Daemon) QueueLengths() map[string]int {
	out := map[string]int{"production": 0, "test": 0, "dev": 0}
	for _, ds := range d.fleet {
		for name, n := range queueLens(ds.queue) {
			out[name] += n
		}
	}
	return out
}

// CacheStatsByDevice snapshots each partition's program-cache counters, or
// nil when program caching is disabled.
func (d *Daemon) CacheStatsByDevice() map[string]*CacheStats {
	if d.cfg.ProgramCache <= 0 {
		return nil
	}
	out := make(map[string]*CacheStats, len(d.fleet))
	for _, ds := range d.fleet {
		out[ds.id] = ds.cache.stats()
	}
	return out
}

// QueueLengthsByDevice reports per-partition queue depth by class.
func (d *Daemon) QueueLengthsByDevice() map[string]map[string]int {
	out := make(map[string]map[string]int, len(d.fleet))
	for _, ds := range d.fleet {
		out[ds.id] = queueLens(ds.queue)
	}
	return out
}
