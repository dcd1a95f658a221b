package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/loadgen"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// http-live shape: the qcsd serving composition (one partition, full
// emulation, telemetry registry and TSDB, flight recorder, program cache 64)
// behind loopback HTTP, driven by closed-loop QRMI clients.
const (
	liveAdminToken   = "perfbench-admin"
	liveProgramCache = 64
	liveWarmupJobs   = 4 // per client, during setup
	liveScrapeEvery  = 8 // jobs per client between monitoring reads
	liveMaxPolls     = 10000
	spanHeader       = "X-Perfbench-Span"
)

// liveNode is one assembled serving composition on a loopback listener.
type liveNode struct {
	clk    *simclock.Clock
	dev    *device.Device
	srv    *http.Server
	served chan struct{}
	base   string
	tr     *http.Transport

	// The job listener feeds an SLO analyzer and a depth tracker; the daemon
	// may call it from several goroutines, so mu serializes it.
	mu          sync.Mutex
	an          *loadgen.Analyzer
	dt          *depthTracker
	observeN    int
	observeTime time.Duration

	// clockMu serializes clock advances; steps counts them.
	clockMu sync.Mutex
	steps   int

	sink *spanSink // handler spans; nil when untraced
}

func newLiveNode(seed int64, traced bool, origin time.Time) (*liveNode, error) {
	n := &liveNode{an: loadgen.NewAnalyzer(nil), dt: newDepthTracker(), served: make(chan struct{})}
	n.clk = simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(24*time.Hour, 0)
	fleet, err := device.NewFleet(1, device.Config{Clock: n.clk, Seed: seed, Registry: reg, TSDB: tsdb})
	if err != nil {
		return nil, err
	}
	n.dev = fleet.Devices()[0]
	router, err := daemon.NewRouter("least-loaded")
	if err != nil {
		return nil, err
	}
	admitter, err := admission.NewPolicy("accept-all")
	if err != nil {
		return nil, err
	}
	priority, err := daemon.NewPriority("constant")
	if err != nil {
		return nil, err
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices: fleet.Devices(), Router: router, Admission: admitter, Priority: priority, Clock: n.clk,
		AdminToken:       liveAdminToken,
		EnablePreemption: true,
		ProgramCache:     liveProgramCache,
		Registry:         reg, TSDB: tsdb,
		Flight:      trace.NewFlightRecorder(trace.DefaultFlightCapacity),
		Seed:        seed,
		JobListener: n.listen,
	})
	if err != nil {
		return nil, err
	}
	var h http.Handler = d.Handler()
	if traced {
		n.sink = &spanSink{origin: origin, nextID: 1 << 40}
		h = &tracingHandler{next: h, sink: n.sink}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.base = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	n.tr = &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	return n, nil
}

// close stops the server and waits until it has exited.
func (n *liveNode) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // a timeout leaves connections to Close below
	_ = n.srv.Close()
	<-n.served
	n.tr.CloseIdleConnections()
}

func (n *liveNode) listen(ev daemon.JobEvent) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dt.observe(ev)
	t0 := time.Now()
	n.an.Observe(ev)
	n.observeN++
	n.observeTime += time.Since(t0)
}

// advance moves the simulation clock to its next scheduled event. A client
// calls it whenever a poll finds its job unfinished; advances are serialized
// and nothing paces on wall time. A client only advances while its own job
// is queued or running, and a queued job means the partition is busy, so the
// closed loop never leaves the QPU idle in simulated time.
func (n *liveNode) advance(tc *tracer) {
	sp := tc.begin("bench.clock_wait", -1)
	n.clockMu.Lock()
	defer n.clockMu.Unlock()
	tc.end(sp)
	if next, ok := n.clk.NextEventAt(); ok {
		sp = tc.begin("device.advance", -1)
		n.clk.RunUntil(next)
		tc.end(sp)
	}
	n.steps++
}

// benchTransport counts unexpected HTTP statuses and, when traced, injects
// the client's current span ID so handler spans link to it.
type benchTransport struct {
	base       http.RoundTripper
	tc         *tracer
	unexpected *atomic.Int64
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.tc != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(t.tc.current(), 10))
	}
	resp, err := t.base.RoundTrip(req)
	if err == nil && resp.StatusCode/100 != 2 &&
		!(resp.StatusCode == http.StatusConflict && strings.HasSuffix(req.URL.Path, "/result")) {
		t.unexpected.Add(1)
	}
	return resp, err
}

// tracingHandler times Handler().ServeHTTP per request.
type tracingHandler struct {
	next http.Handler
	sink *spanSink
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	if err != nil {
		parent = -1
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.sink.add("daemon.http."+routeName(r), parent, -1, t0, time.Now())
}

func routeName(r *http.Request) string {
	switch p := r.URL.Path; {
	case p == "/api/v1/jobs":
		return "submit"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/api/v1/jobs/"):
		return "status"
	case p == "/metrics":
		return "metrics"
	case p == "/admin/v1/status":
		return "admin"
	default:
		return "other"
	}
}

// liveClient is one closed-loop QRMI client and what it measured.
type liveClient struct {
	id                                  int
	n                                   *liveNode
	c                                   *daemon.Client
	hc                                  *http.Client
	jobs                                *liveJobs
	tc                                  *tracer
	latency, scrapes                    []time.Duration
	attempted, completed, failed, polls int
	submitFailed, badResults            int
	exposition                          []byte // the last /metrics body
	firstFailure                        error
}

func (lc *liveClient) noteFailure(err error) {
	if lc.firstFailure == nil {
		lc.firstFailure = err
	}
}

// reset drops what the client measured, keeping its session and job stream.
func (lc *liveClient) reset() {
	*lc = liveClient{id: lc.id, n: lc.n, c: lc.c, hc: lc.hc, jobs: lc.jobs, tc: lc.tc}
	if lc.tc != nil {
		lc.tc.spans, lc.tc.open = nil, nil
	}
}

func (n *liveNode) newClient(id int, jobs *liveJobs, tc *tracer, unexpected *atomic.Int64) (*liveClient, error) {
	hc := &http.Client{Transport: &benchTransport{base: n.tr, tc: tc, unexpected: unexpected}}
	c, err := daemon.NewClient(n.base, fmt.Sprintf("perfbench-%d", id), sched.ClassProduction, hc)
	if err != nil {
		return nil, err
	}
	return &liveClient{id: id, n: n, c: c, hc: hc, jobs: jobs, tc: tc}, nil
}

// loop runs submit → poll status → fetch result until the deadline passes
// or limit jobs are done, with a monitoring read every liveScrapeEvery jobs.
func (lc *liveClient) loop(deadline time.Time, limit int) error {
	tc := lc.tc
	for k := 0; k < limit && time.Now().Before(deadline); k++ {
		sp := tc.begin("bench.payload", -1)
		job, err := lc.jobs.next()
		tc.end(sp)
		if err != nil {
			return err
		}
		if tc != nil {
			sp = tc.begin("qir.decode_validate", -1)
			prog := new(qir.Program)
			err := prog.UnmarshalJSON(job.payload)
			if err == nil {
				spec := lc.n.dev.Spec()
				err = prog.Validate(&spec)
			}
			tc.end(sp)
			if err != nil {
				return fmt.Errorf("client %d job %d: payload does not decode and validate: %w", lc.id, k, err)
			}
		}
		lc.attempted++
		jobSpan := tc.begin("client.job", int64(k))
		t0 := time.Now()
		ok, err := lc.runJob(job)
		latency := time.Since(t0)
		tc.end(jobSpan)
		if err != nil {
			return err
		}
		if ok {
			lc.completed++
		} else {
			// A failed job misses every latency limit.
			lc.failed++
			latency = math.MaxInt64
		}
		lc.latency = append(lc.latency, latency)
		if (k+1)%liveScrapeEvery == 0 {
			if err := lc.scrape(); err != nil {
				return err
			}
		}
	}
	return nil
}

// runJob submits one job, polls until it is terminal and fetches its result.
// It reports whether the job completed with a correct result.
func (lc *liveClient) runJob(job liveJob) (bool, error) {
	tc := lc.tc
	sp := tc.begin("http.client.submit", -1)
	id, err := lc.c.TaskStart(job.payload)
	tc.end(sp)
	if err != nil {
		lc.submitFailed++
		lc.noteFailure(fmt.Errorf("submit: %w", err))
		return false, nil
	}
	for polls := 0; ; polls++ {
		if polls == liveMaxPolls {
			return false, fmt.Errorf("client %d: job %s not terminal after %d polls", lc.id, id, polls)
		}
		sp = tc.begin("http.client.status", -1)
		state, err := lc.c.TaskStatus(id)
		tc.end(sp)
		lc.polls++
		if err != nil {
			lc.noteFailure(fmt.Errorf("status of %s: %w", id, err))
			return false, nil
		}
		if state == qrmi.StateCompleted {
			break
		}
		if state == qrmi.StateFailed || state == qrmi.StateCancelled {
			_, err := lc.c.TaskResult(id)
			lc.noteFailure(fmt.Errorf("job %s ended %s: %v", id, state, err))
			return false, nil
		}
		lc.n.advance(tc)
	}
	sp = tc.begin("http.client.result", -1)
	data, err := lc.c.TaskResult(id)
	tc.end(sp)
	if err != nil {
		lc.noteFailure(fmt.Errorf("result of %s: %w", id, err))
		return false, nil
	}
	if !resultMatches(data, job.shots) {
		lc.badResults++
		lc.noteFailure(fmt.Errorf("result of %s does not sum to %d shots", id, job.shots))
		return false, nil
	}
	return true, nil
}

// resultMatches reports whether data decodes as a result whose counts sum to
// the submitted shots.
func resultMatches(data []byte, shots int) bool {
	var res qir.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return false
	}
	total := 0
	for _, c := range res.Counts {
		total += c
	}
	return total == shots
}

// scrape is the monitoring read: GET /metrics, then GET /admin/v1/status.
func (lc *liveClient) scrape() error {
	sp := lc.tc.begin("http.client.scrape", -1)
	defer lc.tc.end(sp)
	t0 := time.Now()
	body, err := lc.get("/metrics", "")
	if err != nil {
		return err
	}
	if _, err := lc.get("/admin/v1/status", liveAdminToken); err != nil {
		return err
	}
	lc.scrapes = append(lc.scrapes, time.Since(t0))
	lc.exposition = body
	return nil
}

// seriesIn counts the samples in a Prometheus exposition.
func seriesIn(exposition []byte) int {
	n := 0
	for _, line := range strings.Split(string(exposition), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

func (lc *liveClient) get(path, token string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, lc.n.base+path, nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := lc.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return body, nil
}

// liveEpochJobs is how many jobs each client runs against one node before a
// fresh node replaces it. The daemon retains every job, so a node's per-job
// costs grow with its history; fixed-size epochs make that history part of
// the workload instead of a function of how fast the run went.
const liveEpochJobs = 1024

// liveRun accumulates one closed-loop phase over successive nodes.
type liveRun struct {
	clients     []*liveClient // every client of every node
	setups      []float64     // per node: composition and warm-up, in seconds
	wall        time.Duration // closed-loop time, set-up excluded
	steps       int
	unexpected  atomic.Int64
	util        []float64 // per node: the partition's busy fraction
	peaks       []float64 // per node: peak live heap while its clients ran, MB
	dt          *depthTracker
	observeN    int
	observeTime time.Duration
	report      *loadgen.Report // the first node's SLO report
	reportTime  time.Duration
	spans       []span
}

// drive runs every client's loop concurrently and waits for all of them.
func drive(clients []*liveClient, d time.Duration, limit int) (time.Duration, error) {
	deadline := time.Now().Add(d)
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, lc := range clients {
		wg.Add(1)
		go func(i int, lc *liveClient) {
			defer wg.Done()
			errs[i] = lc.loop(deadline, limit)
		}(i, lc)
	}
	wg.Wait()
	return time.Since(t0), errors.Join(errs...)
}

// runLive drives the closed loop over successive nodes until d of loop time
// has passed, on at least one node; a traced loop stops after one node, which
// keeps the span file small. Each client's job stream continues from node to
// node, so no payload repeats within a run.
func runLive(o options, traced bool, d time.Duration) (*liveRun, error) {
	heap := startHeapSampler()
	defer heap.finish()
	run := &liveRun{dt: newDepthTracker()}
	origin := time.Now()
	streams := make([]*liveJobs, o.workers)
	for i := range streams {
		streams[i] = newLiveJobs(o.seed, i)
	}
	for node := 0; node == 0 || (run.wall < d && !traced); node++ {
		if err := run.epoch(o.seed, traced, origin, node, streams, d-run.wall, heap); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// epoch composes and warms a node (the set-up a run times as setup_s), then
// runs up to liveEpochJobs jobs per client on it within d.
func (run *liveRun) epoch(seed int64, traced bool, origin time.Time, node int, streams []*liveJobs, d time.Duration, heap *heapSampler) error {
	t0 := time.Now()
	n, err := newLiveNode(seed, traced, origin)
	if err != nil {
		return err
	}
	defer n.close()
	clients := make([]*liveClient, len(streams))
	for i, jobs := range streams {
		var tc *tracer
		if traced {
			tc = newTracer(origin, int64(node*len(streams)+i+1)<<32)
		}
		if clients[i], err = n.newClient(i, jobs, tc, &run.unexpected); err != nil {
			return err
		}
	}
	if _, err := drive(clients, time.Hour, liveWarmupJobs); err != nil {
		return err
	}
	for _, lc := range clients {
		lc.reset()
	}
	n.mu.Lock()
	n.dt, n.observeN, n.observeTime = newDepthTracker(), 0, 0
	n.mu.Unlock()
	if n.sink != nil {
		n.sink.mu.Lock()
		n.sink.spans = nil
		n.sink.mu.Unlock()
	}
	run.setups = append(run.setups, time.Since(t0).Seconds())
	stepsBefore := n.steps

	heap.lap()
	wall, err := drive(clients, d, liveEpochJobs)
	if err != nil {
		return err
	}
	run.peaks = append(run.peaks, heap.lap())
	for _, lc := range clients {
		lc.n, lc.c, lc.hc = nil, nil, nil // keep the measurements, not the node
	}
	run.wall += wall
	run.steps += n.steps - stepsBefore
	run.clients = append(run.clients, clients...)
	run.util = append(run.util, n.dev.Utilization())
	n.mu.Lock()
	run.dt.merge(n.dt)
	run.observeN += n.observeN
	run.observeTime += n.observeTime
	if run.report == nil {
		t := time.Now()
		run.report = n.an.Report()
		run.reportTime = time.Since(t)
	}
	n.mu.Unlock()
	if traced {
		for _, lc := range clients {
			run.spans = append(run.spans, lc.tc.spans...)
			lc.tc.spans = nil
		}
		n.sink.mu.Lock()
		run.spans = append(run.spans, n.sink.spans...)
		n.sink.mu.Unlock()
	}
	return nil
}

func (run *liveRun) totals() (attempted, completed, failed, polls, bad int, lat, scrapes []time.Duration) {
	for _, lc := range run.clients {
		attempted += lc.attempted
		completed += lc.completed
		failed += lc.failed
		polls += lc.polls
		bad += lc.badResults
		lat = append(lat, lc.latency...)
		scrapes = append(scrapes, lc.scrapes...)
	}
	return
}

// checkLive applies http-live's output checks and purpose guard.
func checkLive(out *outcome, run *liveRun) {
	attempted, completed, _, _, bad, _, _ := run.totals()
	var first error
	for _, lc := range run.clients {
		first = cmp.Or(first, lc.firstFailure)
	}
	out.check(bad == 0, "http-live: %d results did not decode or their counts did not sum to the submitted shots", bad)
	out.check(completed == attempted, "http-live: %d of %d jobs did not complete (first: %v)", attempted-completed, attempted, first)
	out.check(run.unexpected.Load() == 0, "purpose guard: http-live saw %d non-2xx responses other than 409 not-ready results", run.unexpected.Load())
}

func runHTTPLive(o options) (*outcome, error) {
	if o.traced {
		return tracedLive(o)
	}
	run, err := runLive(o, false, o.seconds)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	checkLive(out, run)
	attempted, completed, failed, _, _, lat, scrapes := run.totals()
	out.attempted, out.succeeded, out.failed = attempted, completed, failed
	latMs := durationsIn(lat, time.Millisecond)
	out.metrics.set("setup_s", median(run.setups), "s")
	out.metrics.set("jobs_per_s", float64(completed)/run.wall.Seconds(), "jobs/s")
	out.metrics.set("peak_heap_mb", median(run.peaks), "MB")
	out.metrics.set("latency_p50_ms", median(latMs), "ms")
	out.metrics.set("latency_p90_ms", quantile(latMs, 0.90), "ms")
	out.info.set("latency_p99_ms", quantile(latMs, 0.99), "ms")
	out.info.set("scrape_p50_ms", median(durationsIn(scrapes, time.Millisecond)), "ms")
	out.metrics.set("qpu_utilization", mean(run.util), "ratio")
	out.info.set("prod_wait_p99_s", prodWaitP99(run.report), "sim-seconds")
	out.info.set("nodes", float64(len(run.setups)), "count")
	out.info.set("latency_samples", float64(len(lat)), "count")
	out.info.set("scrape_samples", float64(len(scrapes)), "count")
	out.info.set("clock_advances", float64(run.steps), "count")
	return out, nil
}

// tracedLive runs the closed loop traced on one node (at most half the run's
// time), then untraced for the rest of the run, for the runtime figures and
// the overhead baseline.
func tracedLive(o options) (*outcome, error) {
	out := &outcome{}
	run, err := runLive(o, true, o.seconds/2)
	if err != nil {
		return nil, err
	}
	checkLive(out, run)
	_, completed, _, polls, _, _, _ := run.totals()

	before := memStats()
	plain, err := runLive(o, false, o.seconds-run.wall)
	if err != nil {
		return nil, err
	}
	rt := deltaSince(before)
	checkLive(out, plain)
	_, plainDone, _, _, _, _, _ := plain.totals()
	for _, r := range []*liveRun{run, plain} {
		attempted, done, failed, _, _, _, _ := r.totals()
		out.attempted += attempted
		out.succeeded += done
		out.failed += failed
	}

	st := selfTimes(run.spans)
	stat := func(name string) *layerStat {
		if s := st[name]; s != nil {
			return s
		}
		return &layerStat{}
	}
	dt := run.dt
	jobs := max(1, completed)
	sub, adv := stat("daemon.http.submit"), stat("device.advance")
	subUs := durationsIn(sub.selfs, time.Microsecond)
	var submitFailed int
	for _, lc := range run.clients {
		submitFailed += lc.submitFailed
	}
	m := &out.metrics
	m.set("loadgen.analyzer.observe_ns", float64(run.observeTime)/float64(max(1, run.observeN)), "ns")
	m.set("loadgen.analyzer.events", float64(run.observeN), "count")
	m.set("loadgen.analyzer.report_ms", ms(run.reportTime), "ms")
	m.set("daemon.submit.calls", float64(sub.calls), "count")
	m.set("daemon.submit.self_us_mean", mean(subUs), "us")
	m.set("daemon.submit.self_us_p99", quantile(subUs, 0.99), "us")
	m.set("daemon.submit.rejected", float64(dt.rejected), "count")
	m.set("daemon.submit.errors", float64(max(0, submitFailed-dt.rejected)), "count")
	m.set("daemon.dispatch.self_us_per_start", float64(adv.self)/float64(time.Microsecond)/float64(max(1, dt.starts)), "us")
	m.set("daemon.starts", float64(dt.starts), "count")
	m.set("daemon.preemptions", float64(dt.preemptions), "count")
	m.set("daemon.requeues", float64(dt.requeues), "count")
	m.set("daemon.useful_start_ratio", float64(dt.completed)/float64(max(1, dt.starts)), "ratio")
	m.set("sched.depth_max", float64(dt.maxDepth), "count")
	m.set("sched.depth_mean_at_start", float64(dt.startDepthSum)/float64(max(1, dt.starts)), "count")
	m.set("sched.prod_wait_p99_s", prodWaitP99(run.report), "sim-seconds")
	m.set("sched.prod_deadline_hit_rate", prodDeadlineHitRate(run.report), "ratio")
	m.set("admission.rejected", float64(dt.rejected), "count")
	m.set("admission.downgraded", float64(dt.downgraded), "count")
	m.set("device.advance_us_per_job", float64(adv.self)/float64(time.Microsecond)/float64(jobs), "us")
	m.set("http.polls_per_job", float64(polls)/float64(jobs), "count")
	var last []byte
	for _, lc := range run.clients {
		if len(lc.exposition) > 0 {
			last = lc.exposition
		}
	}
	m.set("telemetry.exposition_bytes", float64(len(last)), "bytes")
	m.set("telemetry.series", float64(seriesIn(last)), "count")
	setRuntimeLayers(out, rt, max(1, plainDone))
	plainRate := float64(plainDone) / plain.wall.Seconds()
	tracedRate := float64(completed) / run.wall.Seconds()
	m.set("bench.trace_overhead_pct", 100*(plainRate/tracedRate-1), "%")

	// Ledger: every client's loop time, split by the layer it was in.
	wall := run.wall * time.Duration(o.workers)
	var lines []ledgerLine
	for _, name := range []string{
		"http.client.submit", "http.client.status", "http.client.result", "http.client.scrape",
		"daemon.http.submit", "daemon.http.status", "daemon.http.result", "daemon.http.metrics", "daemon.http.admin",
		"device.advance", "qir.decode_validate", "client.job", "bench.payload", "bench.clock_wait",
	} {
		if s := st[name]; s != nil {
			lines = append(lines, ledgerLine{layer: name, calls: s.calls, self: s.self})
		}
	}
	fmt.Fprintf(o.log, "http-live traced: %d clients × %.2f s over %d nodes; http.client.* self time is transport (round trip minus handler)\n",
		o.workers, run.wall.Seconds(), len(run.setups))
	m.set("bench.ledger_residue_pct", printLedger(o.log, "http-live", lines, wall), "%")

	handler := map[string][]string{"submit": {"submit"}, "status": {"status"}, "result": {"result"}, "scrape": {"metrics", "admin"}}
	var transport time.Duration
	var requests int
	for _, kind := range []string{"submit", "status", "result", "scrape"} {
		c := stat("http.client." + kind)
		out.info.set("http.client_rtt_us."+kind, float64(c.total)/float64(time.Microsecond)/float64(max(1, c.calls)), "us")
		var total time.Duration
		var calls int
		for _, route := range handler[kind] {
			total += stat("daemon.http." + route).total
			calls += stat("daemon.http." + route).calls
		}
		out.info.set("daemon.http.handler_us."+kind, float64(total)/float64(time.Microsecond)/float64(max(1, calls)), "us")
		transport += c.self
		requests += calls
	}
	out.info.set("http.transport_us", float64(transport)/float64(time.Microsecond)/float64(max(1, requests)), "us")
	dv := stat("qir.decode_validate")
	out.info.set("qir.decode_validate_us", float64(dv.total)/float64(time.Microsecond)/float64(max(1, dv.calls)), "us")
	spans := run.spans
	run.spans = nil
	return out, finishTrace(o, out, &tracer{spans: spans})
}
