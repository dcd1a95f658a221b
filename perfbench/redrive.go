package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// preparedInput is a trace with its per-record classes and payloads resolved
// once, the way the replay engine prepares it.
type preparedInput struct {
	tr       *loadgen.Trace
	classes  []sched.Class
	payloads [][]byte
	users    []string
}

func prepare(tr *loadgen.Trace) (*preparedInput, error) {
	p := &preparedInput{
		tr:       tr,
		classes:  make([]sched.Class, len(tr.Records)),
		payloads: make([][]byte, len(tr.Records)),
	}
	built := make(map[[2]int][]byte)
	seen := make(map[string]bool)
	for i := range tr.Records {
		rec := &tr.Records[i]
		class, err := rec.ParsedClass()
		if err != nil {
			return nil, err
		}
		p.classes[i] = class
		key := [2]int{rec.Qubits, rec.Shots}
		payload, ok := built[key]
		if !ok {
			if payload, err = loadgen.BuildProgram(rec.Qubits, rec.Shots).MarshalJSON(); err != nil {
				return nil, err
			}
			built[key] = payload
		}
		p.payloads[i] = payload
		if !seen[rec.User] {
			seen[rec.User] = true
			p.users = append(p.users, rec.User)
		}
	}
	return p, nil
}

// drainGrace is the replay engine's default bound on draining past the
// horizon.
const drainGrace = 14 * 24 * time.Hour

// redrive replays in through the public calls alone — NewFleet, NewDaemon,
// OpenSession, Submit at each arrival instant, RunUntil, and Analyzer.Observe
// as the job listener — in the order loadgen.Replay makes them, so its report
// must equal Replay's byte for byte. tc (may be nil) records a span around
// every call; dt (may be nil) follows queue depth and lifecycle counts.
func redrive(in *preparedInput, cfg loadgen.ReplayConfig, tc *tracer, dt *depthTracker) (*loadgen.Report, error) {
	if cfg.RateScale != 0 || cfg.ShotScale != 0 || cfg.DisablePreemption || cfg.Tracing {
		return nil, errors.New("redrive: only the policy, fleet and cache axes are supported")
	}
	sp := tc.begin("loadgen.compose", -1)
	router, err := daemon.NewRouter(cfg.Router)
	if err != nil {
		return nil, err
	}
	order, err := daemon.NewOrder(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	admitter, err := admission.NewPolicy(cfg.Admission)
	if err != nil {
		return nil, err
	}
	priority, err := daemon.NewPriority(cfg.Priority)
	if err != nil {
		return nil, err
	}
	clk := simclock.New()
	fleet, err := device.NewFleet(cfg.Devices, device.Config{Clock: clk, Seed: cfg.Seed, TimingOnly: true})
	if err != nil {
		return nil, err
	}
	an := loadgen.NewAnalyzer(nil)
	listener := an.Observe
	if tc != nil || dt != nil {
		listener = func(ev daemon.JobEvent) {
			dt.observe(ev)
			s := tc.begin("loadgen.analyzer.observe", jobNum(ev.Job.ID))
			an.Observe(ev)
			tc.end(s)
		}
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices:          fleet.Devices(),
		Router:           router,
		Order:            order,
		Admission:        admitter,
		Priority:         priority,
		Clock:            clk,
		AdminToken:       "loadgen",
		EnablePreemption: true,
		Seed:             cfg.Seed,
		ProgramCache:     cfg.ProgramCache,
		SetupSeconds:     cfg.SetupSeconds,
		JobListener:      listener,
	})
	if err != nil {
		return nil, err
	}
	tokens := make(map[string]string, len(in.users))
	for _, user := range in.users {
		s, err := d.OpenSession(user)
		if err != nil {
			return nil, err
		}
		tokens[user] = s.Token
	}
	tc.end(sp)

	sp = tc.begin("loadgen.schedule", -1)
	submitErrs := 0
	recs := in.tr.Records
	for i := range recs {
		rec := &recs[i]
		token := tokens[rec.User]
		req := daemon.SubmitRequest{
			Program:            in.payloads[i],
			Class:              in.classes[i],
			Pattern:            sched.Pattern(rec.Pattern),
			Source:             "loadgen",
			ExpectedQPUSeconds: rec.ExpectedQPUSeconds,
			DeadlineSeconds:    rec.DeadlineSeconds,
		}
		job := int64(i)
		clk.ScheduleAt(rec.At(), "loadgen-arrival", func() {
			s := tc.begin("daemon.submit", job)
			_, err := d.Submit(token, req)
			tc.end(s)
			var rej *daemon.RejectedError
			if err != nil && !errors.As(err, &rej) {
				submitErrs++
			}
			dt.submitted(err, rej != nil)
		})
	}
	tc.end(sp)

	horizon := in.tr.Header.Horizon()
	if n := len(recs); n > 0 && recs[n-1].At() >= horizon {
		horizon = recs[n-1].At() + time.Microsecond
	}
	sp = tc.begin("daemon.run", -1)
	clk.RunUntil(horizon)
	tc.end(sp)
	deadline := horizon + drainGrace
	for {
		submitted, terminal := an.Counts()
		if terminal >= submitted {
			break
		}
		next, ok := clk.NextEventAt()
		if clk.Now() >= deadline || !ok {
			return nil, fmt.Errorf("redrive: backlog did not drain (%d/%d jobs terminal)", terminal, submitted)
		}
		sp = tc.begin("daemon.run", -1)
		clk.RunUntil(min(next, deadline))
		tc.end(sp)
	}

	sp = tc.begin("loadgen.analyzer.report", -1)
	rep := an.Report()
	tc.end(sp)
	rep.Router, rep.Scheduler, rep.Admission = cfg.Router, cfg.Scheduler, cfg.Admission
	if cfg.Priority != "" && cfg.Priority != "constant" {
		rep.Priority = cfg.Priority
	}
	rep.SubmitErrors = submitErrs
	for _, dev := range fleet.Devices() {
		dv := rep.PerDevice[dev.ID()]
		if dv == nil {
			dv = &loadgen.DeviceSLO{}
			rep.PerDevice[dev.ID()] = dv
		}
		dv.Utilization = dev.Utilization()
	}
	sp = tc.begin("daemon.release", -1)
	d.Release()
	tc.end(sp)
	return rep, nil
}

// jobNum extracts the sequence number from a daemon job ID ("job-17").
func jobNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "job-"), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// depthTracker derives per-partition queue depth and lifecycle counts from
// job events. A nil *depthTracker ignores everything.
type depthTracker struct {
	depth         map[string]int
	queuedOn      map[string]string // job ID → partition while it waits
	maxDepth      int
	startDepthSum int
	starts        int
	completed     int
	preemptions   int
	requeues      int
	rejected      int
	downgraded    int
	submitCalls   int
	submitRejects int
	submitErrors  int
}

func newDepthTracker() *depthTracker {
	return &depthTracker{depth: make(map[string]int), queuedOn: make(map[string]string)}
}

func (t *depthTracker) enqueue(id, dev string) {
	t.queuedOn[id] = dev
	t.depth[dev]++
	t.maxDepth = max(t.maxDepth, t.depth[dev])
}

func (t *depthTracker) dequeue(id string) (depth int, ok bool) {
	dev, ok := t.queuedOn[id]
	if !ok {
		return 0, false
	}
	depth = t.depth[dev]
	t.depth[dev]--
	delete(t.queuedOn, id)
	return depth, true
}

func (t *depthTracker) observe(ev daemon.JobEvent) {
	if t == nil {
		return
	}
	switch ev.Type {
	case daemon.JobEventSubmitted:
		t.enqueue(ev.Job.ID, ev.Job.Device)
		if ev.Job.AdmissionOutcome == string(admission.Downgraded) {
			t.downgraded++
		}
	case daemon.JobEventStarted:
		t.starts++
		if depth, ok := t.dequeue(ev.Job.ID); ok {
			t.startDepthSum += depth
		}
	case daemon.JobEventRequeued:
		t.requeues++
		t.enqueue(ev.Job.ID, ev.Job.Device)
	case daemon.JobEventPreempted:
		t.preemptions++
	case daemon.JobEventRejected:
		t.rejected++
	case daemon.JobEventFinished:
		t.dequeue(ev.Job.ID)
		if ev.Job.State == daemon.JobCompleted {
			t.completed++
		}
	}
}

// submitted counts one Submit call's outcome.
func (t *depthTracker) submitted(err error, rejected bool) {
	if t == nil {
		return
	}
	t.submitCalls++
	switch {
	case rejected:
		t.submitRejects++
	case err != nil:
		t.submitErrors++
	}
}

// merge adds another tracker's counts (one sweep cell) into t.
func (t *depthTracker) merge(o *depthTracker) {
	t.maxDepth = max(t.maxDepth, o.maxDepth)
	t.startDepthSum += o.startDepthSum
	t.starts += o.starts
	t.completed += o.completed
	t.preemptions += o.preemptions
	t.requeues += o.requeues
	t.rejected += o.rejected
	t.downgraded += o.downgraded
	t.submitCalls += o.submitCalls
	t.submitRejects += o.submitRejects
	t.submitErrors += o.submitErrors
}
