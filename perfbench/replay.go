package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"hpcqc/internal/loadgen"
)

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.
const setupRepeats = 5

// Purpose guards: replay-saturated exists to grow per-partition backlogs into
// the thousands, sweep-light to keep every queue short. A run whose input
// drifted from that purpose fails.
const maxLightDepth = 40

func guardSaturated(out *outcome, size string, depth int) {
	want := 1000
	if size == "tiny" {
		want = 100
	}
	out.check(depth >= want, "purpose guard: replay-saturated peak per-partition backlog %d < %d", depth, want)
}

func guardLight(out *outcome, depth int) {
	out.check(depth <= maxLightDepth, "purpose guard: sweep-light max queue depth %d > %d", depth, maxLightDepth)
}

func digest(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }

// checkDigest requires a sweep report to hash like the run's first sweep of
// the same trace.
func checkDigest(out *outcome, sweep int, report []byte, want [sha256.Size]byte) {
	out.check(digest(report) == want, "sweep %d: report digest differs from the first sweep of the same trace", sweep)
}

func saturatedConfig(seed int64) loadgen.ReplayConfig {
	return loadgen.ReplayConfig{
		Devices:   saturatedDevices,
		Router:    "least-loaded",
		Scheduler: "fair-share",
		Admission: "accept-all",
		Priority:  "slo-urgency",
		Seed:      seed,
	}
}

func lightSweepConfig(seed int64, workers int) loadgen.SweepConfig {
	return loadgen.SweepConfig{
		Devices:      lightDevices,
		Seed:         seed,
		Routers:      []string{"least-loaded", "affinity"},
		Schedulers:   []string{"fifo", "fair-share", "shortest-first"},
		Admissions:   []string{"accept-all", "slo-guard"},
		Priorities:   []string{"constant", "slo-urgency"},
		Workers:      workers,
		ProgramCache: lightCache,
		SetupSeconds: lightSetup,
	}
}

// cellConfig recovers a sweep cell's replay configuration from its report.
func cellConfig(sw loadgen.SweepConfig, rep *loadgen.Report) loadgen.ReplayConfig {
	return loadgen.ReplayConfig{
		Devices:      sw.Devices,
		Router:       rep.Router,
		Scheduler:    rep.Scheduler,
		Admission:    rep.Admission,
		Priority:     rep.Priority,
		Seed:         sw.Seed,
		ProgramCache: sw.ProgramCache,
		SetupSeconds: sw.SetupSeconds,
	}
}

// checkReport applies the per-replay output checks: every offered job is
// accounted for by a terminal outcome, and no submission errored.
func checkReport(out *outcome, label string, rep *loadgen.Report, offered int) bool {
	terminal := rep.Completed + rep.Failed + rep.Cancelled + rep.Rejected
	ok := terminal == offered && rep.Jobs == offered && rep.SubmitErrors == 0
	out.check(ok, "%s: offered %d jobs but report has %d recorded, %d terminal (completed %d + failed %d + cancelled %d + rejected %d), %d submit errors",
		label, offered, rep.Jobs, terminal, rep.Completed, rep.Failed, rep.Cancelled, rep.Rejected, rep.SubmitErrors)
	return ok
}

// meanUtilization is the fleet's mean busy fraction in a report.
func meanUtilization(rep *loadgen.Report) float64 {
	var u float64
	for _, d := range rep.PerDevice {
		u += d.Utilization
	}
	return u / float64(max(1, len(rep.PerDevice)))
}

func prodWaitP99(rep *loadgen.Report) float64 {
	if c := rep.PerClass["production"]; c != nil {
		return c.WaitSeconds.P99
	}
	return 0
}

func prodDeadlineHitRate(rep *loadgen.Report) float64 {
	if c := rep.PerClass["production"]; c != nil {
		return c.DeadlineHitRate
	}
	return 0
}

func runReplaySaturated(o options) (*outcome, error) {
	cfg := saturatedConfig(o.seed)
	var traces []*loadgen.Trace
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if traces, err = traceSet(o.seed, o.size, saturatedTrace); err != nil {
			return nil, err
		}
		if _, err = loadgen.Replay(traces[0], cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out := &outcome{}
	if o.traced {
		return out, tracedReplay(o, out, traces, cfg)
	}

	heap := startHeapSampler()
	defer heap.finish()
	refs := make([]*loadgen.Report, len(traces))
	refBytes := make([][]byte, len(traces))
	var walls []time.Duration
	var peaks []float64
	var jobs int
	start := time.Now()
	for i := 0; i < len(traces) || time.Since(start) < o.seconds; i++ {
		k := i % len(traces)
		offered := len(traces[k].Records)
		heap.lap()
		t0 := time.Now()
		rep, err := loadgen.Replay(traces[k], cfg)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0))
		peaks = append(peaks, heap.lap())
		b, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		jobs += offered
		out.attempted += offered
		if checkReport(out, fmt.Sprintf("replay %d", i), rep, offered) {
			out.succeeded += rep.Completed
			out.failed += offered - rep.Completed
		} else {
			out.failed += offered
		}
		if refs[k] == nil {
			refs[k], refBytes[k] = rep, b
		}
		out.check(bytes.Equal(b, refBytes[k]), "replay %d: report differs from the first replay of trace %d", i, k)
	}

	// Untimed: re-drive the first trace through the public calls to check the
	// backlog guard, and that the re-drive reproduces Replay's report.
	in, err := prepare(traces[0])
	if err != nil {
		return nil, err
	}
	dt := newDepthTracker()
	rep, err := redrive(in, cfg, nil, dt)
	if err != nil {
		return nil, err
	}
	checkRedrive(out, "replay", rep, refBytes[0])
	guardSaturated(out, o.size, dt.maxDepth)

	var util, wait, hit float64
	for _, r := range refs {
		util += meanUtilization(r) / float64(len(refs))
		wait += prodWaitP99(r) / float64(len(refs))
		hit += prodDeadlineHitRate(r) / float64(len(refs))
	}
	wallMs := durationsIn(walls, time.Millisecond)
	out.metrics.set("setup_s", median(setups), "s")
	out.metrics.set("jobs_per_s", float64(jobs)/sum(walls).Seconds(), "jobs/s")
	out.metrics.set("peak_heap_mb", median(peaks), "MB")
	out.metrics.set("latency_p50_ms", median(wallMs), "ms")
	out.metrics.set("latency_p90_ms", quantile(wallMs, 0.90), "ms")
	out.info.set("latency_p99_ms", quantile(wallMs, 0.99), "ms")
	out.metrics.set("qpu_utilization", util, "ratio")
	out.info.set("cells_per_s", float64(len(walls))/sum(walls).Seconds(), "cells/s")
	out.info.set("prod_wait_p99_s", wait, "sim-seconds")
	out.info.set("prod_deadline_hit_rate", hit, "ratio")
	out.info.set("backlog_max", float64(dt.maxDepth), "jobs")
	out.info.set("replays", float64(len(walls)), "count")
	return out, nil
}

// checkRedrive requires a re-drive's report to equal loadgen.Replay's.
func checkRedrive(out *outcome, label string, rep *loadgen.Report, want []byte) bool {
	b, err := json.Marshal(rep)
	ok := err == nil && bytes.Equal(b, want)
	out.check(ok, "%s: re-driven report differs from loadgen.Replay's", label)
	return ok
}

// tracedReplay re-drives each trace once with spans, right after timing a
// plain loadgen.Replay of it, then keeps timing plain replays for the rest of
// the run (for the runtime figures), and reports the per-layer metrics and
// ledger. Tracing a bounded amount of work keeps the span file small.
func tracedReplay(o options, out *outcome, traces []*loadgen.Trace, cfg loadgen.ReplayConfig) error {
	ins := make([]*preparedInput, len(traces))
	for k, tr := range traces {
		var err error
		if ins[k], err = prepare(tr); err != nil {
			return err
		}
	}
	tc := newTracer(time.Now(), 0)
	dt := newDepthTracker()
	var plain, traced []time.Duration
	var rt runtimeDelta
	var wait, hit float64
	wants := make([][]byte, len(ins))
	plainJobs := 0
	start := time.Now()
	for i := 0; i < len(ins) || time.Since(start) < o.seconds; i++ {
		k := i % len(ins)
		in := ins[k]
		before := memStats()
		t0 := time.Now()
		rep, err := loadgen.Replay(in.tr, cfg)
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(t0))
		rt.add(deltaSince(before))
		offered := len(in.tr.Records)
		plainJobs += offered
		out.attempted += offered
		if checkReport(out, fmt.Sprintf("replay %d", i), rep, offered) {
			out.succeeded += rep.Completed
			out.failed += offered - rep.Completed
		} else {
			out.failed += offered
		}
		b, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if i >= len(ins) {
			out.check(bytes.Equal(b, wants[k]), "replay %d: report differs from the first replay of trace %d", i, k)
			continue
		}
		wants[k] = b
		pass := newDepthTracker()
		t1 := time.Now()
		if rep, err = redrive(in, cfg, tc, pass); err != nil {
			return err
		}
		traced = append(traced, time.Since(t1))
		checkRedrive(out, fmt.Sprintf("traced replay of trace %d", k), rep, b)
		dt.merge(pass)
		wait += prodWaitP99(rep) / float64(len(ins))
		hit += prodDeadlineHitRate(rep) / float64(len(ins))
	}
	guardSaturated(out, o.size, dt.maxDepth)
	jobs := len(ins[0].tr.Records)
	st := selfTimes(tc.spans)
	fmt.Fprintf(o.log, "replay-saturated traced: %d traces re-driven, %d plain replays; plain Replay p50 %.1f ms, traced re-drive p50 %.1f ms\n",
		len(ins), len(plain), median(durationsIn(plain, time.Millisecond)), median(durationsIn(traced, time.Millisecond)))
	residue := printLedger(o.log, "replay-saturated re-drive", replayLedger(st), sum(traced))
	setReplayLayers(out, st, dt, len(ins), jobs, traced, plain[:len(ins)], residue)
	setRuntimeLayers(out, rt, plainJobs)
	out.metrics.set("sched.prod_wait_p99_s", wait, "sim-seconds")
	out.metrics.set("sched.prod_deadline_hit_rate", hit, "ratio")
	setZeroHTTPLayers(out)
	out.info.set("loadgen.sweep.cell_ms_p50", median(durationsIn(plain, time.Millisecond)), "ms")
	out.info.set("loadgen.sweep.cell_ms_p99", quantile(durationsIn(plain, time.Millisecond), 0.99), "ms")
	return finishTrace(o, out, tc)
}

// replayLedger lists the layers a re-drive crosses, in call order.
func replayLedger(st map[string]*layerStat) []ledgerLine {
	var lines []ledgerLine
	for _, name := range []string{"loadgen.compose", "loadgen.schedule", "daemon.submit", "daemon.run",
		"loadgen.analyzer.observe", "loadgen.analyzer.report", "daemon.release"} {
		if s := st[name]; s != nil {
			lines = append(lines, ledgerLine{layer: name, calls: s.calls, self: s.self})
		}
	}
	return lines
}

// setReplayLayers fills the span-derived per-layer metrics shared by both
// replay workloads. Counts are per traced pass (one replay, or one run of
// every sweep cell); plain holds the untraced timings of the same work.
func setReplayLayers(out *outcome, st map[string]*layerStat, dt *depthTracker, passes, jobs int,
	traced, plain []time.Duration, residue float64) {
	stat := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	per := func(n int) float64 { return float64(n) / float64(passes) }
	obs, sub, run, rpt := stat("loadgen.analyzer.observe"), stat("daemon.submit"), stat("daemon.run"), stat("loadgen.analyzer.report")
	subUs := durationsIn(sub.selfs, time.Microsecond)
	m := &out.metrics
	m.set("loadgen.analyzer.observe_ns", float64(obs.total)/float64(max(1, obs.calls)), "ns")
	m.set("loadgen.analyzer.events", per(obs.calls), "count")
	m.set("loadgen.analyzer.report_ms", median(durationsIn(rpt.selfs, time.Millisecond)), "ms")
	m.set("daemon.submit.calls", per(dt.submitCalls), "count")
	m.set("daemon.submit.self_us_mean", mean(subUs), "us")
	m.set("daemon.submit.self_us_p99", quantile(subUs, 0.99), "us")
	m.set("daemon.submit.rejected", per(dt.submitRejects), "count")
	m.set("daemon.submit.errors", per(dt.submitErrors), "count")
	m.set("daemon.dispatch.self_us_per_start", float64(run.self)/float64(time.Microsecond)/float64(max(1, dt.starts)), "us")
	m.set("daemon.starts", per(dt.starts), "count")
	m.set("daemon.preemptions", per(dt.preemptions), "count")
	m.set("daemon.requeues", per(dt.requeues), "count")
	m.set("daemon.useful_start_ratio", float64(dt.completed)/float64(max(1, dt.starts)), "ratio")
	m.set("sched.depth_max", float64(dt.maxDepth), "count")
	m.set("sched.depth_mean_at_start", float64(dt.startDepthSum)/float64(max(1, dt.starts)), "count")
	m.set("admission.rejected", per(dt.rejected), "count")
	m.set("admission.downgraded", per(dt.downgraded), "count")
	m.set("device.advance_us_per_job", float64(run.self)/float64(time.Microsecond)/float64(passes*jobs), "us")
	m.set("bench.trace_overhead_pct", 100*(float64(sum(traced))/float64(sum(plain))-1), "%")
	m.set("bench.ledger_residue_pct", residue, "%")
}

// setRuntimeLayers reports allocation and GC work per job.
func setRuntimeLayers(out *outcome, rt runtimeDelta, jobs int) {
	m := &out.metrics
	m.set("runtime.allocs_per_job", float64(rt.mallocs)/float64(max(1, jobs)), "count")
	m.set("runtime.bytes_per_job", float64(rt.bytes)/float64(max(1, jobs)), "bytes")
	m.set("runtime.gc_cycles", float64(rt.gcs), "count")
	m.set("runtime.gc_pause_ms", ms(rt.pause), "ms")
}

// finishTrace writes the spans out, drops them and then reports the live
// heap, so the tracer's own memory does not count.
func finishTrace(o options, out *outcome, tc *tracer) error {
	err := writeSpans(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)), tc.spans)
	tc.spans = nil
	out.metrics.set("runtime.heap_live_mb_end", liveHeapMB(), "MB")
	return err
}

// setZeroHTTPLayers reports the HTTP-only layer counts of a workload that
// never crosses HTTP.
func setZeroHTTPLayers(out *outcome) {
	out.metrics.set("http.polls_per_job", 0, "count")
	out.metrics.set("telemetry.exposition_bytes", 0, "bytes")
	out.metrics.set("telemetry.series", 0, "count")
}

func runSweepLight(o options) (*outcome, error) {
	cfg := lightSweepConfig(o.seed, o.workers)
	var traces []*loadgen.Trace
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if traces, err = traceSet(o.seed, o.size, lightTrace); err != nil {
			return nil, err
		}
		if _, err = loadgen.Sweep(traces[0], cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	out := &outcome{}
	if o.traced {
		return out, tracedSweep(o, out, traces, cfg)
	}

	heap := startHeapSampler()
	defer heap.finish()
	refs := make([]*loadgen.SweepReport, len(traces))
	digests := make([][sha256.Size]byte, len(traces))
	var walls []time.Duration
	var peaks []float64
	var cells, jobs int
	start := time.Now()
	for i := 0; i < len(traces) || time.Since(start) < o.seconds; i++ {
		k := i % len(traces)
		offered := len(traces[k].Records)
		heap.lap()
		t0 := time.Now()
		sw, err := loadgen.Sweep(traces[k], cfg)
		if err != nil {
			return nil, err
		}
		walls = append(walls, time.Since(t0))
		peaks = append(peaks, heap.lap())
		b, err := json.Marshal(sw)
		if err != nil {
			return nil, err
		}
		cells += len(sw.Results)
		jobs += len(sw.Results) * offered
		out.attempted += len(sw.Results)
		for c, rep := range sw.Results {
			if checkReport(out, fmt.Sprintf("sweep %d cell %d", i, c), rep, offered) {
				out.succeeded++
			} else {
				out.failed++
			}
		}
		if refs[k] == nil {
			refs[k], digests[k] = sw, digest(b)
		}
		checkDigest(out, i, b, digests[k])
	}

	// Untimed: re-drive every cell of the first trace to check the depth
	// guard and that the re-drive reproduces each cell's report.
	in, err := prepare(traces[0])
	if err != nil {
		return nil, err
	}
	dt := newDepthTracker()
	for _, want := range refs[0].Results {
		cell := newDepthTracker()
		rep, err := redrive(in, cellConfig(cfg, want), nil, cell)
		if err != nil {
			return nil, err
		}
		wantBytes, err := json.Marshal(want)
		if err != nil {
			return nil, err
		}
		checkRedrive(out, "sweep cell "+want.Router+"/"+want.Scheduler+"/"+want.Admission+"/"+want.Priority, rep, wantBytes)
		dt.merge(cell)
	}
	guardLight(out, dt.maxDepth)

	var util, wait float64
	for _, sw := range refs {
		for _, rep := range sw.Results {
			util += meanUtilization(rep)
			wait += prodWaitP99(rep)
		}
	}
	n := float64(len(refs) * len(refs[0].Results))
	wallMs := durationsIn(walls, time.Millisecond)
	out.metrics.set("setup_s", median(setups), "s")
	out.metrics.set("jobs_per_s", float64(jobs)/sum(walls).Seconds(), "jobs/s")
	out.metrics.set("peak_heap_mb", median(peaks), "MB")
	out.metrics.set("latency_p50_ms", median(wallMs), "ms")
	out.metrics.set("latency_p90_ms", quantile(wallMs, 0.90), "ms")
	out.info.set("latency_p99_ms", quantile(wallMs, 0.99), "ms")
	out.metrics.set("qpu_utilization", util/n, "ratio")
	out.info.set("cells_per_s", float64(cells)/sum(walls).Seconds(), "cells/s")
	out.info.set("prod_wait_p99_s", wait/n, "sim-seconds")
	out.info.set("depth_max", float64(dt.maxDepth), "jobs")
	out.info.set("sweeps", float64(len(walls)), "count")
	return out, nil
}

// tracedSweep re-drives every cell of the first trace serially with spans,
// each right after timing a plain loadgen.Replay of it; for the rest of the
// run it keeps timing plain cell replays, cycling through the traces.
func tracedSweep(o options, out *outcome, traces []*loadgen.Trace, cfg loadgen.SweepConfig) error {
	ins := make([]*preparedInput, len(traces))
	refs := make([]*loadgen.SweepReport, len(traces))
	for k, tr := range traces {
		var err error
		if ins[k], err = prepare(tr); err != nil {
			return err
		}
		if refs[k], err = loadgen.Sweep(tr, cfg); err != nil {
			return err
		}
	}
	tc := newTracer(time.Now(), 0)
	dt := newDepthTracker()
	var plain, traced []time.Duration
	var rt runtimeDelta
	var wait, hit float64
	cells := len(refs[0].Results)
	plainJobs := 0
	start := time.Now()
	for pass := 0; pass < len(ins) || time.Since(start) < o.seconds; pass++ {
		k := pass % len(ins)
		in := ins[k]
		for i, cellRef := range refs[k].Results {
			want, err := json.Marshal(cellRef)
			if err != nil {
				return err
			}
			cc := cellConfig(cfg, cellRef)
			before := memStats()
			t0 := time.Now()
			rep, err := loadgen.Replay(in.tr, cc)
			if err != nil {
				return err
			}
			plain = append(plain, time.Since(t0))
			rt.add(deltaSince(before))
			plainJobs += len(in.tr.Records)
			out.attempted++
			ok := checkRedrive(out, fmt.Sprintf("trace %d cell %d via Replay", k, i), rep, want)
			if pass == 0 {
				cell := newDepthTracker()
				t1 := time.Now()
				if rep, err = redrive(in, cc, tc, cell); err != nil {
					return err
				}
				traced = append(traced, time.Since(t1))
				ok = checkRedrive(out, fmt.Sprintf("traced cell %d", i), rep, want) && ok
				dt.merge(cell)
				wait += prodWaitP99(rep) / float64(cells)
				hit += prodDeadlineHitRate(rep) / float64(cells)
			}
			if ok {
				out.succeeded++
			} else {
				out.failed++
			}
		}
	}
	guardLight(out, dt.maxDepth)
	st := selfTimes(tc.spans)
	cellMs := durationsIn(plain, time.Millisecond)
	fmt.Fprintf(o.log, "sweep-light traced: %d cells re-driven, %d plain cell replays; plain cell p50 %.2f ms, traced cell p50 %.2f ms\n",
		cells, len(plain), median(cellMs), median(durationsIn(traced, time.Millisecond)))
	residue := printLedger(o.log, "sweep-light cells re-driven serially", replayLedger(st), sum(traced))
	setReplayLayers(out, st, dt, 1, cells*len(ins[0].tr.Records), traced, plain[:cells], residue)
	setRuntimeLayers(out, rt, plainJobs)
	out.metrics.set("sched.prod_wait_p99_s", wait, "sim-seconds")
	out.metrics.set("sched.prod_deadline_hit_rate", hit, "ratio")
	setZeroHTTPLayers(out)
	out.info.set("loadgen.sweep.cell_ms_p50", median(cellMs), "ms")
	out.info.set("loadgen.sweep.cell_ms_p99", quantile(cellMs, 0.99), "ms")
	return finishTrace(o, out, tc)
}
