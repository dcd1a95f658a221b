package loadgen

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// AllRouters lists the routing policies a sweep expands "all" to.
func AllRouters() []string { return []string{"round-robin", "least-loaded", "class-affinity"} }

// AllSchedulers lists the within-class orders a sweep expands "all" to.
func AllSchedulers() []string { return []string{"fifo", "fair-share", "shortest-first"} }

// AllAdmissions lists the admission policies a sweep expands "all" to.
func AllAdmissions() []string { return admission.AllPolicies() }

// AllPriorities lists the priority policies a sweep expands "all" to.
func AllPriorities() []string { return daemon.AllPriorities() }

// drainGrace bounds how far past the trace horizon a replay advances waiting
// for the backlog to drain, in simulation time.
const drainGrace = 14 * 24 * time.Hour

// ReplayConfig parameterizes one deterministic trace replay.
type ReplayConfig struct {
	// Devices sizes the fleet (default 4).
	Devices int
	// Router is the routing policy name (default least-loaded).
	Router string
	// Scheduler is the within-class order: fifo, fair-share or
	// shortest-first (default fifo).
	Scheduler string
	// Admission is the admission policy: accept-all, queue-depth,
	// token-bucket or slo-guard (default accept-all). Rejected arrivals
	// appear in the report as shed work, never as submit errors.
	Admission string
	// Priority is the dynamic-urgency axis composing with Scheduler:
	// constant, age, slo-urgency or edf (default constant — the identity
	// policy, whose reports stay byte-identical to a replay without the
	// axis; the report omits the priority field for it).
	Priority string
	// Seed drives the fleet and daemon randomness. The same trace and seed
	// produce bit-identical schedule decisions and reports.
	Seed int64
	// RateScale is the in-memory arrival-rate multiplier: every recorded
	// arrival offset (integer microseconds) is divided by the scale, so a
	// scale of 2 compresses the trace's day of arrivals into twelve hours —
	// twice the offered load from the same records, with zero extra RNG
	// draws and no trace rewrite. 0 and 1 both mean "as recorded" and keep
	// the replay byte-identical to an unscaled one; the saturation search
	// probes knees by re-replaying the shared trace under varying scales.
	RateScale float64
	// DisablePreemption turns production preemption off for this replay —
	// the sweep's preemption axis. The default (false) preserves the
	// preemptive dispatch every prior report was produced under.
	DisablePreemption bool
	// ShotScale multiplies the fleet's shot rate — device speed — so a
	// scale of 2 halves every job's service time. 0 and 1 both mean the
	// canonical 1 Hz spec and keep the replay byte-identical to an
	// unscaled one.
	ShotScale float64
	// ProgramCache sizes each partition's calibration-warm program cache
	// (entries per partition). Zero — the default — disables caching, and the
	// report stays byte-identical to a cache-less replay; non-zero adds
	// cache hit/miss accounting (and, with the affinity router, warm-steered
	// placement) to the run.
	ProgramCache int
	// SetupSeconds is the cold-setup occupancy a program-cache miss charges
	// the device, in QPU seconds. Requires ProgramCache > 0.
	SetupSeconds float64
	// Registry optionally receives the analyzer's telemetry histograms.
	Registry *telemetry.Registry
	// Tracing turns on simulation-time span emission: the report then carries
	// per-class per-stage latency attribution (ClassSLO.Stages). Spans are
	// deterministic, so tracing does not perturb schedule decisions or report
	// byte-stability — it only adds the stage breakdown.
	Tracing bool
	// SpanListener, when non-nil, additionally receives every emitted span
	// (implies Tracing) — the hook `qcload trace export` uses to capture a
	// replay into a flight recorder for Chrome trace-event export.
	SpanListener trace.Listener
}

// preparedTrace is a trace decoded once for many replays: per-record classes
// and program payloads resolved up front, plus the distinct submitters in
// first-appearance order. Every field is immutable after prepareTrace
// returns, so one preparedTrace is shared read-only across all workers of a
// sweep or saturation search.
type preparedTrace struct {
	tr       *Trace
	classes  []sched.Class
	payloads [][]byte
	users    []string
}

// prepareTrace validates the trace and resolves its per-record decode work —
// class parsing, program payload construction, submitter discovery — exactly
// once. Sweep and Saturate call it up front so a thousand cells replay the
// same decoded records instead of paying the warm-up per cell.
func prepareTrace(tr *Trace) (*preparedTrace, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	p := &preparedTrace{
		tr:       tr,
		classes:  make([]sched.Class, len(tr.Records)),
		payloads: make([][]byte, len(tr.Records)),
	}
	seen := make(map[string]bool)
	for i := range tr.Records {
		rec := &tr.Records[i]
		class, err := rec.ParsedClass()
		if err != nil {
			return nil, err
		}
		p.classes[i] = class
		payload, err := sharedPrograms.payload(rec.Qubits, rec.Shots)
		if err != nil {
			return nil, err
		}
		p.payloads[i] = payload
		if !seen[rec.User] {
			seen[rec.User] = true
			p.users = append(p.users, rec.User)
		}
	}
	return p, nil
}

// analyzerPool recycles SLO analyzers (their maps, order slices, stage
// sample buffers and jobTrack slabs) across replay cells. Only registry-less
// analyzers — the sweep/saturate case — are pooled.
var analyzerPool = sync.Pool{New: func() any { return NewAnalyzer(nil) }}

// Replay submits every trace record at its recorded arrival instant against
// a fresh fleet on a fresh virtual clock, runs the clock to completion, and
// returns the SLO report. Everything executes on the calling goroutine, so
// event order — and therefore every schedule decision — is a pure function
// of (trace, config).
func Replay(tr *Trace, cfg ReplayConfig) (*Report, error) {
	prep, err := prepareTrace(tr)
	if err != nil {
		return nil, err
	}
	return replayPrepared(prep, cfg)
}

// replayPrepared is Replay against an already-decoded trace — the sweep and
// saturation engines call it directly so the decode cost is paid once, not
// per cell or per probe.
func replayPrepared(prep *preparedTrace, cfg ReplayConfig) (*Report, error) {
	tr := prep.tr
	if cfg.Devices <= 0 {
		cfg.Devices = 4
	}
	if cfg.Router == "" {
		cfg.Router = "least-loaded"
	}
	if cfg.Scheduler == "" {
		cfg.Scheduler = "fifo"
	}
	if cfg.Admission == "" {
		cfg.Admission = "accept-all"
	}
	if cfg.RateScale < 0 || math.IsNaN(cfg.RateScale) || math.IsInf(cfg.RateScale, 0) {
		return nil, fmt.Errorf("loadgen: invalid rate scale %g", cfg.RateScale)
	}
	if cfg.ShotScale < 0 || math.IsNaN(cfg.ShotScale) || math.IsInf(cfg.ShotScale, 0) {
		return nil, fmt.Errorf("loadgen: invalid shot scale %g", cfg.ShotScale)
	}
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
	// at maps a recorded arrival offset onto the (possibly rate-scaled)
	// replay clock. Integer-microsecond division through float64 is exact
	// enough to be deterministic (IEEE 754) and monotone (us1 ≤ us2 keeps
	// us1/s ≤ us2/s), so scaled replays are as reproducible as unscaled
	// ones; scale 1 bypasses the float path entirely for bit-safety.
	scale := cfg.RateScale
	if scale == 0 {
		scale = 1
	}
	at := func(us int64) time.Duration {
		if scale == 1 {
			return time.Duration(us) * time.Microsecond
		}
		return time.Duration(int64(float64(us)/scale)) * time.Microsecond
	}

	clk := simclock.New()
	// Replay reports are built from job lifecycle timing alone — no analytics
	// path reads measured counts — so the fleet runs in timing-only mode:
	// identical schedule decisions and report bytes, none of the emulator
	// cost that otherwise dominates the replay wall clock.
	devCfg := device.Config{Clock: clk, Seed: cfg.Seed, TimingOnly: true}
	if cfg.ShotScale != 0 && cfg.ShotScale != 1 {
		spec := qir.DefaultAnalogSpec()
		spec.ShotRateHz *= cfg.ShotScale
		devCfg.Spec = spec
	}
	fleet, err := device.NewFleet(cfg.Devices, devCfg)
	if err != nil {
		return nil, fmt.Errorf("loadgen: replay fleet: %w", err)
	}
	// Registry-less analyzers come from the shared pool: their maps, sample
	// buffers and track slabs are recycled across the cells of a sweep, so a
	// thousand-cell run's live heap stays proportional to its worker count.
	var an *Analyzer
	pooled := cfg.Registry == nil
	if pooled {
		an = analyzerPool.Get().(*Analyzer)
		an.Reset()
	} else {
		an = NewAnalyzer(cfg.Registry)
	}
	var spans trace.Listener
	pipelineOnly := false
	if cfg.Tracing || cfg.SpanListener != nil {
		spans = trace.Tee(an.ObserveSpan, cfg.SpanListener)
		// With only the analyzer listening, marks and occupancy spans would
		// be built and discarded — have the daemon skip them. Any external
		// listener (flight recorder, exporter) gets the full stream.
		pipelineOnly = cfg.SpanListener == nil
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices:           fleet.Devices(),
		Router:            router,
		Order:             order,
		Admission:         admitter,
		Priority:          priority,
		Clock:             clk,
		AdminToken:        "loadgen",
		EnablePreemption:  !cfg.DisablePreemption,
		Seed:              cfg.Seed,
		ProgramCache:      cfg.ProgramCache,
		SetupSeconds:      cfg.SetupSeconds,
		JobListener:       an.Observe,
		SpanListener:      spans,
		PipelineSpansOnly: pipelineOnly,
		Registry:          cfg.Registry,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: replay daemon: %w", err)
	}

	// One session per distinct submitter, opened in first-appearance order so
	// token generation consumes the daemon's RNG identically across runs.
	tokens := make(map[string]string, len(prep.users))
	for _, user := range prep.users {
		s, err := d.OpenSession(user)
		if err != nil {
			return nil, err
		}
		tokens[user] = s.Token
	}

	submitErrs := 0
	for i := range tr.Records {
		rec := &tr.Records[i]
		token := tokens[rec.User]
		class := prep.classes[i]
		payload := prep.payloads[i]
		pattern := sched.Pattern(rec.Pattern)
		expected := rec.ExpectedQPUSeconds
		deadline := rec.DeadlineSeconds
		clk.ScheduleAt(at(rec.AtUS), "loadgen-arrival", func() {
			_, err := d.Submit(token, daemon.SubmitRequest{
				Program:            payload,
				Class:              class,
				Pattern:            pattern,
				Source:             "loadgen",
				ExpectedQPUSeconds: expected,
				DeadlineSeconds:    deadline,
			})
			var rej *daemon.RejectedError
			if err != nil && !errors.As(err, &rej) {
				// Admission sheds are first-class outcomes counted by the
				// analyzer; anything else is a real submit error.
				submitErrs++
			}
		})
	}

	horizon := at(tr.Header.HorizonUS)
	if n := len(tr.Records); n > 0 {
		if last := at(tr.Records[n-1].AtUS); last >= horizon {
			horizon = last + time.Microsecond
		}
	}
	clk.RunUntil(horizon)
	// Drain the backlog by jumping straight to each next scheduled event:
	// the device drift/QA processes keep the event queue non-empty forever,
	// so quiescence is detected by job accounting, not an empty queue. The
	// jump fires exactly the events fixed-step probing would fire, in the
	// same order — byte-identical reports — without paying a clock pass per
	// empty probe minute.
	deadline := horizon + drainGrace
	for {
		submitted, terminal := an.Counts()
		if terminal >= submitted {
			break
		}
		if clk.Now() >= deadline {
			return nil, fmt.Errorf("loadgen: %s/%s/%s backlog did not drain within %s past the horizon (%d/%d jobs terminal)",
				cfg.Router, cfg.Scheduler, cfg.Admission, drainGrace, terminal, submitted)
		}
		next, ok := clk.NextEventAt()
		if !ok {
			return nil, fmt.Errorf("loadgen: %s/%s/%s event queue drained with %d/%d jobs terminal",
				cfg.Router, cfg.Scheduler, cfg.Admission, terminal, submitted)
		}
		if next > deadline {
			next = deadline
		}
		clk.RunUntil(next)
	}

	rep := an.Report()
	rep.Router = cfg.Router
	rep.Scheduler = cfg.Scheduler
	rep.Admission = cfg.Admission
	// The constant default leaves the report's priority field empty, so
	// replays predating the axis (and reruns of their traces) stay
	// byte-identical; any non-default policy is labeled for sweep cells.
	if cfg.Priority != "" && cfg.Priority != "constant" {
		rep.Priority = cfg.Priority
	}
	// Same omit-at-default convention for the generalized axes: only a
	// non-default value marks the cell, so pre-axis reports keep their bytes.
	if cfg.DisablePreemption {
		rep.Preemption = "off"
	}
	if scale != 1 {
		rep.RateScale = scale
	}
	if cfg.ShotScale != 0 && cfg.ShotScale != 1 {
		rep.ShotScale = cfg.ShotScale
	}
	rep.SubmitErrors = submitErrs
	for _, dev := range fleet.Devices() {
		dv := rep.PerDevice[dev.ID()]
		if dv == nil {
			dv = &DeviceSLO{}
			rep.PerDevice[dev.ID()] = dv
		}
		dv.Utilization = dev.Utilization()
	}
	// The report is self-contained; hand the per-cell scratch back to the
	// shared pools. Release recycles the daemon's job records (safe here —
	// every accessor above returned copies) and the analyzer returns with
	// its slab for the next cell. Error paths skip this: a dropped analyzer
	// is just a pool miss.
	d.Release()
	if pooled {
		analyzerPool.Put(an)
	}
	return rep, nil
}
