// Command qcsd is the quantum access node middleware daemon (paper §3.3):
// it owns the QPU connection (here the device model), serves the user and
// admin REST APIs, and exposes the Prometheus metrics endpoint.
//
// Usage:
//
//	qcsd [-listen :8080] [-admin-token TOKEN] [-seed N] [-timescale X]
//	     [-devices N] [-router POLICY] [-admission POLICY] [-priority POLICY]
//	     [-program-cache N] [-setup S]
//	     [-trace-buffer N] [-debug-listen ADDR]
//
// -timescale compresses simulated device time: X simulated seconds advance
// per wall-clock second (default 10), so a 1 Hz-shot device is usable
// interactively.
//
// -devices sets the number of managed QPU partitions; -router picks how
// jobs are spread across them (round-robin, least-loaded, class-affinity,
// or the weighted scorer router affinity[:load=W:affinity=W:cap=W]);
// -admission picks the load-shedding policy at the submit pipeline's door
// (accept-all, queue-depth, token-bucket, slo-guard — slo-guard also takes
// inline parameters, e.g. slo-guard:wait=45s:warn=0.7, including
// lateness=F, the deadline-door factor for deadline-carrying submissions).
//
// -priority picks the dynamic-urgency scheduling axis that composes with the
// within-class order (constant, age, slo-urgency, edf — the deadline-driven
// pair also takes inline fallback-deadline parameters, e.g.
// slo-urgency:deadline=120s or edf:production=90s).
//
// -program-cache sizes each partition's calibration-warm program cache in
// entries (0 disables it); -setup charges that many QPU seconds of cold
// setup on every cache miss (requires -program-cache > 0).
//
// -trace-buffer sizes the flight recorder: the daemon retains the last N
// terminal job traces for GET /api/v1/trace and `qctl trace <job>`
// (0 disables tracing).
//
// -debug-listen starts a separate debug mux with net/http/pprof endpoints
// on the given address (off by default; keep it off untrusted networks).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"hpcqc/internal/admission"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
	"hpcqc/internal/trace"
)

// node is the assembled quantum access node: the simulated device fleet, the
// middleware daemon in front of it, and the shared clock that a background
// pump advances against wall time.
type node struct {
	clk   *simclock.Clock
	fleet *device.Fleet
	dev   *device.Device // first partition, for log lines
	d     *daemon.Daemon
}

// nodeOptions carries the tunables beyond the core sextet newNode has always
// taken — the flight-recorder size, the program cache and the priority axis.
type nodeOptions struct {
	// traceBuffer is the flight recorder's terminal-trace ring size; zero or
	// negative disables tracing entirely.
	traceBuffer int
	// programCache sizes each partition's calibration-warm program cache
	// (entries; 0 disables it); setupSeconds is the cold-setup QPU time a
	// cache miss charges the device (requires programCache > 0).
	programCache int
	setupSeconds float64
	// priority names the dynamic-urgency scheduling axis (empty = constant,
	// the identity policy).
	priority string
}

// defaultProgramCache is the serving default: large enough that an
// interactive session's re-runs stay calibration-warm, small enough that a
// partition never pins more than a screenful of programs.
const defaultProgramCache = 64

// newNode wires the fleet, daemon and observability stack exactly as the
// serving binary runs them, with a default-sized flight recorder. Split from
// main so tests can boot the same composition without sockets or flags.
func newNode(adminToken string, seed int64, timescale float64, devices int, routerPolicy, admissionPolicy string) (*node, error) {
	return newNodeOpts(adminToken, seed, timescale, devices, routerPolicy, admissionPolicy,
		nodeOptions{traceBuffer: trace.DefaultFlightCapacity, programCache: defaultProgramCache})
}

func newNodeOpts(adminToken string, seed int64, timescale float64, devices int, routerPolicy, admissionPolicy string, opts nodeOptions) (*node, error) {
	if adminToken == "" {
		return nil, fmt.Errorf("qcsd: -admin-token is required")
	}
	if timescale <= 0 {
		return nil, fmt.Errorf("qcsd: -timescale must be positive, got %g", timescale)
	}
	router, err := daemon.NewRouter(routerPolicy)
	if err != nil {
		return nil, fmt.Errorf("qcsd: %w", err)
	}
	admitter, err := admission.NewPolicy(admissionPolicy)
	if err != nil {
		return nil, fmt.Errorf("qcsd: %w", err)
	}
	priority, err := daemon.NewPriority(opts.priority)
	if err != nil {
		return nil, fmt.Errorf("qcsd: %w", err)
	}
	var flight *trace.FlightRecorder
	if opts.traceBuffer > 0 {
		flight = trace.NewFlightRecorder(opts.traceBuffer)
	}
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(24*time.Hour, 0)
	fleet, err := device.NewFleet(devices, device.Config{
		Clock: clk, Seed: seed, Registry: reg, TSDB: tsdb,
	})
	if err != nil {
		return nil, fmt.Errorf("qcsd: device: %w", err)
	}
	d, err := daemon.NewDaemon(daemon.Config{
		Devices: fleet.Devices(), Router: router, Admission: admitter, Priority: priority, Clock: clk,
		AdminToken:       adminToken,
		EnablePreemption: true,
		ProgramCache:     opts.programCache,
		SetupSeconds:     opts.setupSeconds,
		Registry:         reg, TSDB: tsdb,
		Flight: flight,
		Seed:   seed,
	})
	if err != nil {
		return nil, fmt.Errorf("qcsd: daemon: %w", err)
	}
	return &node{clk: clk, fleet: fleet, dev: fleet.Devices()[0], d: d}, nil
}

// pump advances simulated time by timescale seconds per wall second until
// stop is closed. tick controls the pump granularity.
func (n *node) pump(timescale float64, tick time.Duration, stop <-chan struct{}) {
	step := time.Duration(float64(tick) * timescale)
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			n.clk.Advance(step)
		}
	}
}

func main() {
	listen := flag.String("listen", ":8080", "address to serve the REST API on")
	adminToken := flag.String("admin-token", "", "admin API token (required)")
	seed := flag.Int64("seed", 1, "device model seed")
	timescale := flag.Float64("timescale", 10, "simulated seconds per wall second")
	devices := flag.Int("devices", 1, "number of managed QPU partitions")
	router := flag.String("router", "least-loaded", "fleet routing policy (round-robin, least-loaded, class-affinity, affinity[:load=W:affinity=W:cap=W])")
	programCache := flag.Int("program-cache", defaultProgramCache, "per-partition calibration-warm program cache entries (0 disables)")
	setupSeconds := flag.Float64("setup", 0, "cold-setup QPU seconds charged on a program-cache miss (requires -program-cache > 0)")
	admissionPolicy := flag.String("admission", "accept-all", "admission policy (accept-all, queue-depth, token-bucket, slo-guard[:key=value...])")
	priorityPolicy := flag.String("priority", "constant", "dynamic-urgency scheduling axis (constant, age, slo-urgency[:key=DUR...], edf[:key=DUR...])")
	traceBuffer := flag.Int("trace-buffer", trace.DefaultFlightCapacity, "flight recorder size: retained terminal job traces (0 disables tracing)")
	debugListen := flag.String("debug-listen", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()

	n, err := newNodeOpts(*adminToken, *seed, *timescale, *devices, *router, *admissionPolicy,
		nodeOptions{traceBuffer: *traceBuffer, programCache: *programCache,
			setupSeconds: *setupSeconds, priority: *priorityPolicy})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop := make(chan struct{})
	defer close(stop)
	go n.pump(*timescale, 100*time.Millisecond, stop)

	if *debugListen != "" {
		// The profiler rides a separate mux on a separate listener, so
		// production API exposure never includes pprof by accident.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("qcsd: pprof debug mux on %s", *debugListen)
			if err := http.ListenAndServe(*debugListen, dbg); err != nil {
				log.Printf("qcsd: debug mux: %v", err)
			}
		}()
	}

	log.Printf("qcsd: serving %s ×%d (%s routing, %s admission, %s priority) on %s (timescale %gx)",
		n.dev.Spec().Name, n.fleet.Size(), n.d.RouterName(), n.d.AdmissionName(), n.d.PriorityName(), *listen, *timescale)
	if err := http.ListenAndServe(*listen, n.d.Handler()); err != nil {
		log.Fatalf("qcsd: %v", err)
	}
}
