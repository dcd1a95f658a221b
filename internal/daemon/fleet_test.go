package daemon

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// fleetEnv is a daemon over an n-partition fleet on a shared simclock.
type fleetEnv struct {
	clk   *simclock.Clock
	fleet *device.Fleet
	d     *Daemon
}

func newFleetEnv(t *testing.T, n int, router Router) *fleetEnv {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(n, device.Config{Clock: clk, Seed: 31, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Router: router, Clock: clk,
		AdminToken: "admin", EnablePreemption: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fleetEnv{clk: clk, fleet: fleet, d: d}
}

// drain advances simulated time until every submitted job is terminal or the
// bound is exceeded.
func (env *fleetEnv) drain(t *testing.T, bound time.Duration) {
	t.Helper()
	deadline := env.clk.Now() + bound
	for env.clk.Now() < deadline {
		done := true
		for _, j := range env.d.ListJobs() {
			if j.State == JobQueued || j.State == JobRunning {
				done = false
				break
			}
		}
		if done {
			return
		}
		env.clk.Advance(5 * time.Second)
	}
	t.Fatalf("jobs not drained within %s: %+v", bound, env.d.QueueLengthsByDevice())
}

// TestFleetSpreadsJobsAcrossDevices checks that the round-robin router lands
// concurrent-in-time jobs on distinct partitions, visible in the per-device
// admin report.
func TestFleetSpreadsJobsAcrossDevices(t *testing.T) {
	env := newFleetEnv(t, 3, NewRoundRobinRouter())
	s, _ := env.d.OpenSession("alice")
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassTest})
		if err != nil {
			t.Fatal(err)
		}
		if j.State != JobRunning {
			t.Fatalf("job %d = %s, want running on its own partition", i, j.State)
		}
		seen[j.Device] = true
	}
	if len(seen) != 3 {
		t.Fatalf("3 jobs used %d partitions: %v", len(seen), seen)
	}
	rep := env.d.AdminStatus()
	if len(rep.Devices) != 3 {
		t.Fatalf("report has %d devices", len(rep.Devices))
	}
	for _, dr := range rep.Devices {
		if dr.Running == "" {
			t.Fatalf("partition %s idle while fleet loaded: %+v", dr.ID, rep.Devices)
		}
	}
	env.drain(t, 5*time.Minute)
}

// assertIdle fails when any partition still holds a running slot, a queue
// entry or a device task.
func (env *fleetEnv) assertIdle(t *testing.T) {
	t.Helper()
	env.d.mu.Lock()
	defer env.d.mu.Unlock()
	for _, ds := range env.d.fleet {
		snap := ds.dev.AdminSnapshot()
		if ds.running != nil || ds.queue.Len() != 0 || snap.Running != "" || snap.QueueLength != 0 {
			t.Fatalf("partition %s not idle: running=%v queued=%d device task=%q device queue=%d",
				ds.id, ds.running != nil, ds.queue.Len(), snap.Running, snap.QueueLength)
		}
	}
}

// TestFleetConcurrentSubmit hammers the daemon from many sessions — dev,
// test and preempting production jobs, some cancelled by their owners right
// after submission — while a separate goroutine advances the shared clock.
// Run under -race (make test-race): every job must end completed, or
// cancelled exactly when its owner's cancel succeeded, and the drained fleet
// must hold no running slot or device task.
func TestFleetConcurrentSubmit(t *testing.T) {
	env := newFleetEnv(t, 4, NewLeastLoadedRouter())
	const (
		sessions = 6
		perSess  = 8
	)
	prog := payload(t, 10)
	stop := make(chan struct{})
	var ticker sync.WaitGroup
	ticker.Add(1)
	go func() {
		defer ticker.Done()
		for {
			select {
			case <-stop:
				return
			default:
				env.clk.Advance(time.Second)
			}
		}
	}()
	var wg sync.WaitGroup
	var cancelled sync.Map // job ID → struct{}{} once its cancel succeeded
	errs := make(chan error, sessions*perSess)
	for u := 0; u < sessions; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			s, err := env.d.OpenSession(fmt.Sprintf("user-%d", u))
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perSess; i++ {
				class := sched.Class(i % 3)
				j, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: class})
				if err != nil {
					errs <- err
					return
				}
				// Withdraw a production and a dev job per session, whether
				// still queued, running or already done.
				if i%4 == 2 && env.d.CancelJob(s.Token, j.ID, false) == nil {
					cancelled.Store(j.ID, struct{}{})
				}
			}
		}(u)
	}
	wg.Wait()
	close(stop)
	ticker.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	env.drain(t, 2*time.Hour)
	jobs := env.d.ListJobs()
	if len(jobs) != sessions*perSess {
		t.Fatalf("jobs recorded = %d, want %d", len(jobs), sessions*perSess)
	}
	for _, j := range jobs {
		want := JobCompleted
		if _, ok := cancelled.Load(j.ID); ok {
			want = JobCancelled
		}
		if j.State != want {
			t.Fatalf("job %s on %s ended %s, want %s (%s)", j.ID, j.Device, j.State, want, j.Error)
		}
	}
	env.assertIdle(t)
}

// TestFleetConcurrentSubmitsSpreadOnePerPartition releases one submission
// per partition at once onto an idle least-loaded fleet with the clock
// stopped. Route and queue push are one atomic step, so the burst lands one
// job per partition instead of herding onto the first.
func TestFleetConcurrentSubmitsSpreadOnePerPartition(t *testing.T) {
	const n = 4
	env := newFleetEnv(t, n, NewLeastLoadedRouter())
	prog := payload(t, 100)
	start := make(chan struct{})
	jobs := make(chan *Job, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := env.d.OpenSession(fmt.Sprintf("user-%d", i))
			if err != nil {
				errs <- err
				return
			}
			<-start
			j, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassTest})
			if err != nil {
				errs <- err
				return
			}
			jobs <- j
		}(i)
	}
	close(start)
	wg.Wait()
	close(jobs)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	perPartition := map[string]int{}
	for j := range jobs {
		if j.State != JobRunning {
			t.Fatalf("job %s = %s on %s, want running on its own partition", j.ID, j.State, j.Device)
		}
		perPartition[j.Device]++
	}
	if len(perPartition) != n {
		t.Fatalf("%d concurrent submissions used %d partitions: %v", n, len(perPartition), perPartition)
	}
	env.drain(t, time.Hour)
	env.assertIdle(t)
}

// TestFleetConcurrentCancelNeverRunsOrPreempts cancels queued production
// jobs while other goroutines advance the clock and submit production work
// elsewhere. A cancelled job must never start, and must never preempt the
// dev job that runs once the partition's production work is done.
func TestFleetConcurrentCancelNeverRunsOrPreempts(t *testing.T) {
	clk := simclock.New()
	fleet, err := device.NewFleet(2, device.Config{Clock: clk, Seed: 31, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	started := map[string]bool{}
	preempted := 0
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Clock: clk, AdminToken: "admin", EnablePreemption: true, Seed: 3,
		JobListener: func(ev JobEvent) {
			mu.Lock()
			defer mu.Unlock()
			switch ev.Type {
			case JobEventStarted:
				started[ev.Job.ID] = true
			case JobEventPreempted:
				preempted++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	env := &fleetEnv{clk: clk, fleet: fleet, d: d}
	ids := fleet.IDs()
	s, _ := d.OpenSession("alice")
	long, short := payload(t, 300), payload(t, 10)
	submit := func(prog []byte, class sched.Class, pin string) *Job {
		t.Helper()
		j, err := d.Submit(s.Token, SubmitRequest{Program: prog, Class: class, Device: pin})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	// Partition 0 runs a 300 s production job. Behind it wait the
	// production jobs about to be cancelled and, last, a dev job.
	submit(long, sched.ClassProduction, ids[0])
	var doomed []*Job
	for i := 0; i < 8; i++ {
		doomed = append(doomed, submit(short, sched.ClassProduction, ids[0]))
	}
	devJob := submit(short, sched.ClassDev, ids[0])

	var wg sync.WaitGroup
	errs := make(chan error, len(doomed)+10)
	wg.Add(3)
	go func() { // cancels land while the doomed jobs still wait
		defer wg.Done()
		for _, j := range doomed {
			if err := d.CancelJob(s.Token, j.ID, false); err != nil {
				errs <- err
			}
		}
	}()
	go func() { // 100 s of clock: the long job is still running after it
		defer wg.Done()
		for i := 0; i < 100; i++ {
			clk.Advance(time.Second)
		}
	}()
	go func() { // production work on the other partition
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := d.Submit(s.Token, SubmitRequest{Program: short, Class: sched.ClassProduction, Device: ids[1]}); err != nil {
				errs <- err
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	env.drain(t, 2*time.Hour)
	for _, j := range doomed {
		got, _ := d.JobStatus(s.Token, j.ID)
		mu.Lock()
		ran := started[j.ID]
		mu.Unlock()
		if got.State != JobCancelled || ran {
			t.Fatalf("cancelled job %s ended %s (started=%v)", j.ID, got.State, ran)
		}
	}
	dv, _ := d.JobStatus(s.Token, devJob.ID)
	if dv.State != JobCompleted || dv.Preemptions != 0 {
		t.Fatalf("dev job = %s preemptions=%d — a cancelled job preempted it", dv.State, dv.Preemptions)
	}
	mu.Lock()
	events := preempted
	mu.Unlock()
	if counted := d.AdminStatus().Preemptions; events != 0 || counted != 0 {
		t.Fatalf("preemptions: %d events, %d counted; want none", events, counted)
	}
	env.assertIdle(t)
}

// TestCancelRacesDispatchDoesNotResurrect races a queued job's cancel
// against the dispatch that would start it: cancelling the blocker ahead of
// it re-dispatches the partition in the same hold, so the waiting job is
// either still queued or already running when its own cancel lands. Either
// way it must stay cancelled — never flip back to running or complete later
// — any device task it got must be withdrawn, and the partition left idle.
// The first two rounds fix the two orders; the rest race them.
func TestCancelRacesDispatchDoesNotResurrect(t *testing.T) {
	for round := 0; round < 50; round++ {
		env := newFleetEnv(t, 1, nil)
		s, _ := env.d.OpenSession("alice")
		// Occupy the partition so the second job stays queued.
		blocker, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 100), Class: sched.ClassDev})
		j, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
		if blocker.State != JobRunning || j.State != JobQueued {
			t.Fatalf("round %d: blocker=%s job=%s, want running and queued", round, blocker.State, j.State)
		}
		cancel := func(id string) error { return env.d.CancelJob(s.Token, id, false) }
		switch round {
		case 0: // cancel lands while the job waits
			if err := cancel(j.ID); err != nil {
				t.Fatal(err)
			}
			if err := cancel(blocker.ID); err != nil {
				t.Fatal(err)
			}
		case 1: // cancel lands after the dispatch started the job
			if err := cancel(blocker.ID); err != nil {
				t.Fatal(err)
			}
			if got, _ := env.d.JobStatus(s.Token, j.ID); got.State != JobRunning {
				t.Fatalf("job = %s after the blocker's cancel, want running", got.State)
			}
			if err := cancel(j.ID); err != nil {
				t.Fatal(err)
			}
		default:
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			for _, id := range []string{j.ID, blocker.ID} {
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					if err := cancel(id); err != nil {
						errs <- err
					}
				}(id)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			for _, id := range []string{j.ID, blocker.ID} {
				got, _ := env.d.JobStatus(s.Token, id)
				if got.State != JobCancelled {
					t.Fatalf("round %d: cancelled job %s resurrected: %s", round, id, got.State)
				}
				if got.DeviceTask != "" {
					if st, _ := env.d.fleet[0].dev.TaskStatus(got.DeviceTask); st != device.TaskCancelled {
						t.Fatalf("round %d: job %s device task = %s, want cancelled", round, id, st)
					}
				}
			}
			env.clk.Advance(time.Hour) // a resurrected task would complete here
		}
		env.assertIdle(t)
	}
}

// TestCancelledQueuedJobDoesNotPreempt holds a production job in the queue
// behind a running dev job (the partition is in maintenance, so dispatch
// waits), cancels it, and re-dispatches the partition. The cancel removed
// the queue entry in the same hold, so nothing is left to preempt the dev
// job.
func TestCancelledQueuedJobDoesNotPreempt(t *testing.T) {
	env := newFleetEnv(t, 1, nil)
	ds := env.d.fleet[0]
	s, _ := env.d.OpenSession("alice")
	devJob, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 500), Class: sched.ClassDev})
	ds.dev.StartMaintenance()
	prod, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	if prod.State != JobQueued {
		t.Fatalf("production job = %s during maintenance, want queued", prod.State)
	}
	if err := env.d.CancelJob(s.Token, prod.ID, false); err != nil {
		t.Fatal(err)
	}
	ds.dev.EndMaintenance()
	env.d.mu.Lock()
	env.d.dispatchDevice(ds)
	queued := ds.queue.Len()
	env.d.mu.Unlock()

	dv, _ := env.d.JobStatus(s.Token, devJob.ID)
	if dv.State != JobRunning || dv.Preemptions != 0 {
		t.Fatalf("dev job = %s preemptions=%d — cancelled production job preempted it", dv.State, dv.Preemptions)
	}
	if queued != 0 {
		t.Fatalf("stale queue entry left by cancel: len=%d", queued)
	}
	if env.d.AdminStatus().Preemptions != 0 {
		t.Fatal("preemption counter inflated by cancelled job")
	}
	env.clk.Advance(time.Hour)
	if pv, _ := env.d.JobStatus(s.Token, prod.ID); pv.State != JobCancelled {
		t.Fatalf("cancelled production job = %s", pv.State)
	}
	if dv, _ = env.d.JobStatus(s.Token, devJob.ID); dv.State != JobCompleted || dv.Preemptions != 0 {
		t.Fatalf("dev job = %s preemptions=%d, want completed unpreempted", dv.State, dv.Preemptions)
	}
	env.assertIdle(t)
}

// TestFleetConcurrentQueueDepthCapExact submits a burst of dev jobs at once
// against a queue-depth cap with the clock stopped. Admission and the queue
// push share one hold of the daemon lock, so the cap holds exactly: one job
// runs per partition, cap × partitions wait, and every other submission is
// shed.
func TestFleetConcurrentQueueDepthCapExact(t *testing.T) {
	const (
		parts = 2
		depth = 3
		burst = 24
	)
	env, _ := newAdmissionEnv(t, parts, &admission.QueueDepth{PerDeviceDepth: depth})
	s, err := env.d.OpenSession("alice")
	if err != nil {
		t.Fatal(err)
	}
	prog := payload(t, 50)
	start := make(chan struct{})
	var accepted, rejected atomic.Int64
	errs := make(chan error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, err := env.d.Submit(s.Token, SubmitRequest{Program: prog, Class: sched.ClassDev})
			var rej *RejectedError
			switch {
			case err == nil:
				accepted.Add(1)
			case errors.As(err, &rej):
				rejected.Add(1)
			default:
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if want := int64(parts + parts*depth); accepted.Load() != want || rejected.Load() != burst-want {
		t.Fatalf("accepted %d, rejected %d; want %d and %d", accepted.Load(), rejected.Load(), want, burst-want)
	}
	if q := env.d.QueueLengths()["dev"]; q != parts*depth {
		t.Fatalf("dev backlog = %d, want exactly the cap %d", q, parts*depth)
	}
	env.drain(t, time.Hour)
	env.assertIdle(t)
}

// TestFleetPreemptionConfinedToDevice pins dev-class jobs to two partitions,
// then sends a production job to one of them: only that partition's job may
// be preempted.
func TestFleetPreemptionConfinedToDevice(t *testing.T) {
	env := newFleetEnv(t, 2, NewRoundRobinRouter())
	ids := env.fleet.IDs()
	s, _ := env.d.OpenSession("ops")
	victim, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 400), Class: sched.ClassDev, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	bystander, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 400), Class: sched.ClassDev, Device: ids[1]})
	if err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(5 * time.Second)
	prod, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassProduction, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := env.d.JobStatus(s.Token, prod.ID)
	v, _ := env.d.JobStatus(s.Token, victim.ID)
	b, _ := env.d.JobStatus(s.Token, bystander.ID)
	if p.State != JobRunning || p.Device != ids[0] {
		t.Fatalf("production = %s on %s", p.State, p.Device)
	}
	if v.State != JobQueued || v.Preemptions != 1 {
		t.Fatalf("victim = %s preemptions=%d", v.State, v.Preemptions)
	}
	if b.State != JobRunning || b.Preemptions != 0 {
		t.Fatalf("bystander on %s = %s preemptions=%d — preemption leaked across partitions",
			b.Device, b.State, b.Preemptions)
	}
	env.drain(t, time.Hour)
}

// TestFleetMaintenanceFailover takes one partition into maintenance: the
// router must steer new work to the healthy partitions, and jobs already
// queued on the dark partition must wait (not fail) until it returns.
func TestFleetMaintenanceFailover(t *testing.T) {
	env := newFleetEnv(t, 2, NewLeastLoadedRouter())
	ids := env.fleet.IDs()
	s, _ := env.d.OpenSession("alice")
	// Strand one job on partition 0, then take it down.
	stranded, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 30), Class: sched.ClassDev, Device: ids[0]})
	if err != nil {
		t.Fatal(err)
	}
	dev0, _ := env.fleet.Get(ids[0])
	dev0.StartMaintenance()
	// New work must route around the dark partition and still complete.
	var routed []*Job
	for i := 0; i < 4; i++ {
		j, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassTest})
		if err != nil {
			t.Fatal(err)
		}
		if j.Device != ids[1] {
			t.Fatalf("job routed to %s during maintenance of %s", j.Device, ids[0])
		}
		routed = append(routed, j)
	}
	env.clk.Advance(10 * time.Minute)
	for _, j := range routed {
		got, _ := env.d.JobStatus(s.Token, j.ID)
		if got.State != JobCompleted {
			t.Fatalf("routed job %s = %s", j.ID, got.State)
		}
	}
	// The stranded job survived the window (running or queued, not failed)
	// and completes once maintenance ends.
	got, _ := env.d.JobStatus(s.Token, stranded.ID)
	if got.State == JobFailed || got.State == JobCancelled {
		t.Fatalf("stranded job = %s", got.State)
	}
	if _, err := env.d.LowLevelOpDevice("maintenance_off", ids[0]); err == nil {
		t.Fatal("maintenance_off passed outside allowlist")
	}
	dev0.EndMaintenance()
	env.d.mu.Lock()
	env.d.dispatchDevice(env.d.byDevice[ids[0]])
	env.d.mu.Unlock()
	env.clk.Advance(10 * time.Minute)
	got, _ = env.d.JobStatus(s.Token, stranded.ID)
	if got.State != JobCompleted {
		t.Fatalf("stranded job after maintenance = %s", got.State)
	}
}

// TestFleetThroughputScaling is the acceptance check behind
// BenchmarkFleetDispatch: the same batch of jobs must finish at least 2×
// faster in simulated time on a 4-partition fleet than on one partition.
func TestFleetThroughputScaling(t *testing.T) {
	makespan := func(devices int) time.Duration {
		env := newFleetEnv(t, devices, NewLeastLoadedRouter())
		s, _ := env.d.OpenSession("load")
		for i := 0; i < 32; i++ {
			if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassTest}); err != nil {
				t.Fatal(err)
			}
		}
		env.drain(t, 24*time.Hour)
		return env.clk.Now()
	}
	one := makespan(1)
	four := makespan(4)
	if four*2 > one {
		t.Fatalf("4-device makespan %s not ≥2× faster than 1-device %s", four, one)
	}
}

// TestRouterPolicies exercises the three routing policies directly.
func TestRouterPolicies(t *testing.T) {
	infos := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline, Queued: 3, Busy: true},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Queued: 0},
		{ID: "p2", Index: 2, Status: device.StatusOnline, Queued: 1, Busy: true},
	}
	rr := NewRoundRobinRouter()
	got := []int{rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos), rr.Pick(&Job{}, infos)}
	if got[0] != 0 || got[1] != 1 || got[2] != 2 || got[3] != 0 {
		t.Fatalf("round-robin picks = %v", got)
	}
	ll := NewLeastLoadedRouter()
	if idx := ll.Pick(&Job{}, infos); idx != 1 {
		t.Fatalf("least-loaded picked %d, want 1", idx)
	}
	ca := NewClassAffinityRouter()
	if idx := ca.Pick(&Job{Class: sched.ClassProduction}, infos); idx != 0 {
		t.Fatalf("class-affinity production home = %d, want 0", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassTest}, infos); idx != 1 {
		t.Fatalf("class-affinity test home = %d, want 1", idx)
	}
	// Dev's home p2 is saturated (running + backlog) while p1 sits idle, so
	// the saturation spill overflows dev there instead of queueing it.
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, infos); idx != 1 {
		t.Fatalf("class-affinity dev with saturated home = %d, want 1 (idle spill)", idx)
	}

	// A 2-partition fleet spills dev onto the non-production partition —
	// never back onto production's home.
	two := []DeviceInfo{
		{ID: "p0", Index: 0, Status: device.StatusOnline},
		{ID: "p1", Index: 1, Status: device.StatusOnline, Queued: 5},
	}
	if idx := ca.Pick(&Job{Class: sched.ClassProduction}, two); idx != 0 {
		t.Fatalf("2-fleet production home = %d, want 0", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, two); idx != 1 {
		t.Fatalf("2-fleet dev spill = %d, want 1 (not production's partition)", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassDev}, two[:1]); idx != 0 {
		t.Fatalf("1-fleet dev = %d, want the only partition", idx)
	}

	// Maintenance devices are skipped while any alternative exists…
	infos[1].Status = device.StatusMaintenance
	got = nil
	for i := 0; i < 4; i++ {
		got = append(got, rr.Pick(&Job{}, infos))
	}
	for _, idx := range got {
		if idx == 1 {
			t.Fatalf("round-robin routed to maintenance partition: %v", got)
		}
	}
	if idx := ll.Pick(&Job{}, infos); idx != 2 {
		t.Fatalf("least-loaded with p1 down picked %d, want 2", idx)
	}
	if idx := ca.Pick(&Job{Class: sched.ClassTest}, infos); idx == 1 {
		t.Fatal("class-affinity routed to maintenance home")
	}
	// …and the whole-fleet-down case still yields a valid index.
	infos[0].Status = device.StatusMaintenance
	infos[2].Status = device.StatusMaintenance
	for _, r := range []Router{rr, ll, ca} {
		if idx := r.Pick(&Job{Class: sched.ClassDev}, infos); idx < 0 || idx >= len(infos) {
			t.Fatalf("%s picked out-of-range %d with fleet down", r.Name(), idx)
		}
	}
}

// TestFleetRejectsUnknownPin checks explicit device pins are validated.
func TestFleetRejectsUnknownPin(t *testing.T) {
	env := newFleetEnv(t, 2, nil)
	s, _ := env.d.OpenSession("alice")
	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev, Device: "nope"}); err == nil {
		t.Fatal("unknown device pin accepted")
	}
}

// TestFleetDuplicateIDsRejected checks NewDaemon validates ID uniqueness.
func TestFleetDuplicateIDsRejected(t *testing.T) {
	clk := simclock.New()
	a, _ := device.New(device.Config{Clock: clk, Seed: 1, ID: "same"})
	b, _ := device.New(device.Config{Clock: clk, Seed: 2, ID: "same"})
	if _, err := NewDaemon(Config{Devices: []*device.Device{a, b}, Clock: clk, AdminToken: "x"}); err == nil {
		t.Fatal("duplicate device IDs accepted")
	}
}
