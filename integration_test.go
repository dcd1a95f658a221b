package hpcqc

// Cross-module integration tests: the full architecture assembled the way a
// hosting site would run it, exercised through its public seams (HTTP APIs,
// QRMI resources, the Slurm plugin environment) rather than package
// internals.

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hpcqc/internal/cloud"
	"hpcqc/internal/core"
	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/emulator"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/slurm"
	"hpcqc/internal/telemetry"
)

func integrationProgram(shots int) *qir.Program {
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}

// TestFullStackSlurmToQPU drives the whole pipeline: a Slurm job starts, its
// plugin-resolved environment points the runtime at the daemon, the daemon
// schedules onto the device, and the result flows back — all on one
// simulated clock, with telemetry recorded at each layer.
func TestFullStackSlurmToQPU(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	tsdb := telemetry.NewTSDB(0, 0)
	dev, err := device.New(device.Config{Clock: clk, Seed: 31, Registry: reg, TSDB: tsdb})
	if err != nil {
		t.Fatal(err)
	}
	dmn, err := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm",
		EnablePreemption: true, Registry: reg, TSDB: tsdb,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := slurm.NewCluster(slurm.ClusterConfig{
		Clock: clk, Nodes: 4, QPUGres: 10,
		Partitions: []slurm.Partition{
			{Name: "production", Priority: 100, PreemptLower: true},
			{Name: "dev", Priority: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	var jobID string
	var submitErr error
	_, err = cluster.Submit(slurm.JobSpec{
		Name: "hybrid", User: "alice", Partition: "production", Nodes: 1,
		Walltime: time.Hour, QPUUnits: 10, QPUResource: "qpu-onprem",
		Hint: "qc-balanced",
		OnStart: func(_ int, env map[string]string) {
			// The runtime inside the job: reads the plugin environment,
			// opens a daemon session, submits with the Slurm priority.
			if env["QRMI_RESOURCE"] != "qpu-onprem" || env["QRMI_QPU_SHARE"] != "1" {
				submitErr = nil
				t.Errorf("plugin env = %v", env)
			}
			sess, err := dmn.OpenSession(env["SLURM_JOB_USER"])
			if err != nil {
				submitErr = err
				return
			}
			prio := 0
			if _, err := jsonNumber(env["SLURM_JOB_PRIORITY"], &prio); err != nil {
				submitErr = err
				return
			}
			raw, err := integrationProgram(20).MarshalJSON()
			if err != nil {
				submitErr = err
				return
			}
			j, err := dmn.Submit(sess.Token, daemon.SubmitRequest{
				Program: raw,
				Class:   sched.ClassFromSlurmPriority(prio),
				Pattern: sched.Pattern(env["QRMI_WORKLOAD_HINT"]),
			})
			if err != nil {
				submitErr = err
				return
			}
			jobID = j.ID
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if submitErr != nil {
		t.Fatal(submitErr)
	}
	if jobID == "" {
		t.Fatal("job never submitted through the stack")
	}
	// Admin view sees the job completed with production class.
	jobs := dmn.ListJobs()
	if len(jobs) != 1 || jobs[0].State != daemon.JobCompleted || jobs[0].ClassName() != "production" {
		t.Fatalf("admin jobs = %+v", jobs)
	}
	if jobs[0].Pattern != sched.PatternBalanced {
		t.Fatalf("hint lost: %q", jobs[0].Pattern)
	}
	// Telemetry flowed end to end.
	if reg.Get("qpu_shots_total").Value(nil) != 20 {
		t.Fatalf("shots metric = %g", reg.Get("qpu_shots_total").Value(nil))
	}
	if _, ok := tsdb.Latest("daemon_queue_length", telemetry.Labels{"class": "production"}); !ok {
		t.Fatal("daemon queue telemetry missing")
	}
}

// jsonNumber parses an integer from a string via the json package, keeping
// this file free of strconv for variety in parsing paths under test.
func jsonNumber(s string, out *int) (bool, error) {
	return true, json.Unmarshal([]byte(s), out)
}

// TestRuntimeAgainstDaemonHTTP binds the portable runtime to the daemon via
// its HTTP client resource and runs the same program that runs on local
// emulators — the daemon is just another --qpu target.
func TestRuntimeAgainstDaemonHTTP(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	dmn, err := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm", EnablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(dmn.Handler())
	defer ts.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				clk.Advance(5 * time.Second)
			}
		}
	}()

	client, err := daemon.NewClient(ts.URL, "carol", sched.ClassProduction, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntimeWithResource(client, map[string]string{"resource": "daemon-qpu"})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Spec().Name != "analog-qpu" {
		t.Fatalf("spec through daemon = %s", rt.Spec().Name)
	}
	res, err := rt.Execute(integrationProgram(15))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 15 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if res.Metadata["method"] != "hardware" {
		t.Fatalf("metadata = %v", res.Metadata)
	}
}

// TestRuntimeAgainstCloudHTTP binds the runtime to the cloud service — the
// loose-coupling path — and cross-checks physics with the local emulator.
func TestRuntimeAgainstCloudHTTP(t *testing.T) {
	srv := cloud.NewServer(cloud.ServerConfig{Tokens: []string{"tok"}, Seed: 3})
	if err := srv.RegisterDevice(emulator.NewSVBackend(emulator.SVConfig{})); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl, err := cloud.NewClient(ts.URL, "emu-sv", "tok", nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntimeWithResource(cl, nil)
	if err != nil {
		t.Fatal(err)
	}
	cloudRes, err := rt.Execute(integrationProgram(2000))
	if err != nil {
		t.Fatal(err)
	}
	localRT, err := core.NewRuntimeFor("local-sv", "", []string{"QRMI_SEED=5"})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := localRT.Execute(integrationProgram(2000))
	if err != nil {
		t.Fatal(err)
	}
	if tvd := emulator.TotalVariationDistance(cloudRes.Counts, localRes.Counts); tvd > 0.05 {
		t.Fatalf("cloud vs local TVD = %g", tvd)
	}
}

// TestDaemonSurvivesMaintenanceMidQueue covers the operational corner: jobs
// queue up, the admin takes the device down, queued work resumes afterwards.
func TestDaemonSurvivesMaintenanceMidQueue(t *testing.T) {
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 35})
	dmn, _ := daemon.NewDaemon(daemon.Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm",
		AllowedLowLevelOps: []string{"maintenance_on", "maintenance_off"},
	})
	sess, _ := dmn.OpenSession("alice")
	raw, _ := integrationProgram(30).MarshalJSON()
	j1, err := dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassTest})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dmn.LowLevelOp("maintenance_on"); err != nil {
		t.Fatal(err)
	}
	// Running job (j1) completes; queued job (j2) must not start.
	clk.Advance(5 * time.Minute)
	s1, _ := dmn.JobStatus(sess.Token, j1.ID)
	s2, _ := dmn.JobStatus(sess.Token, j2.ID)
	if s1.State != daemon.JobCompleted {
		t.Fatalf("j1 = %s", s1.State)
	}
	if s2.State != daemon.JobQueued {
		t.Fatalf("j2 during maintenance = %s", s2.State)
	}
	if _, err := dmn.LowLevelOp("maintenance_off"); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Minute)
	s2, _ = dmn.JobStatus(sess.Token, j2.ID)
	if s2.State != daemon.JobCompleted {
		t.Fatalf("j2 after maintenance = %s", s2.State)
	}
}

// TestQRMIResourceContract is a contract test: every local resource type
// honours the same lifecycle invariants.
func TestQRMIResourceContract(t *testing.T) {
	resources := map[string]qrmi.Resource{
		"emu-sv":  qrmi.NewEmulatorResource(emulator.NewSVBackend(emulator.SVConfig{}), 1),
		"emu-mps": qrmi.NewEmulatorResource(emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: 4}), 2),
	}
	clk := simclock.New()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 37})
	dr := qrmi.NewDeviceResource(dev, clk)
	dr.AutoAdvance = 30 * time.Second
	resources["qpu-direct"] = dr

	payload, err := qrmi.EncodeProgram(integrationProgram(10))
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range resources {
		t.Run(name, func(t *testing.T) {
			// Metadata carries a parseable spec.
			md, err := r.Metadata()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := qrmi.SpecFromMetadata(md); err != nil {
				t.Fatal(err)
			}
			// Task ops require acquire.
			if _, err := r.TaskStart(payload); err == nil {
				t.Fatal("TaskStart before Acquire accepted")
			}
			tok, err := r.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			id, err := r.TaskStart(payload)
			if err != nil {
				t.Fatal(err)
			}
			// Poll to terminal within bounds.
			var st qrmi.TaskState
			for i := 0; i < 100; i++ {
				st, err = r.TaskStatus(id)
				if err != nil {
					t.Fatal(err)
				}
				if st.Terminal() {
					break
				}
			}
			if st != qrmi.StateCompleted {
				t.Fatalf("state = %s", st)
			}
			raw, err := r.TaskResult(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := qrmi.DecodeResult(raw)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts.TotalShots() != 10 {
				t.Fatalf("shots = %d", res.Counts.TotalShots())
			}
			if err := r.Release(tok); err != nil {
				t.Fatal(err)
			}
			// Unknown task IDs error.
			if _, err := r.TaskStatus("ghost"); err == nil {
				t.Fatal("ghost status accepted")
			}
		})
	}
}

// TestEmulatorAgreementAcrossBackends is the physics contract: for an
// entangling blockade quench, the χ-limited MPS backend converges to the
// exact backend as χ grows.
func TestEmulatorAgreementAcrossBackends(t *testing.T) {
	omega := 2 * math.Pi
	seq := qir.NewAnalogSequence(qir.LinearRegister("chain", 6, 6))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: 300, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: 300, Val: 2},
	})
	prog := qir.NewAnalogProgram(seq, 30000)

	exact, err := emulator.NewSVBackend(emulator.SVConfig{DTNs: 0.5}).Run(prog, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prevTVD = 2.0
	for _, chi := range []int{1, 4, 16} {
		res, err := emulator.NewMPSBackend(emulator.MPSConfig{MaxBond: chi, DTNs: 1}).Run(prog, 2)
		if err != nil {
			t.Fatal(err)
		}
		tvd := emulator.TotalVariationDistance(exact.Counts, res.Counts)
		if tvd > prevTVD+0.05 {
			t.Fatalf("χ=%d TVD %g worse than smaller χ %g", chi, tvd, prevTVD)
		}
		prevTVD = tvd
	}
	if prevTVD > 0.08 {
		t.Fatalf("χ=16 TVD vs exact = %g", prevTVD)
	}
}

// TestObservabilityEndToEnd scrapes the daemon's /metrics endpoint after
// real activity and checks the exposition parses as Prometheus text.
func TestObservabilityEndToEnd(t *testing.T) {
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, _ := device.New(device.Config{Clock: clk, Seed: 39, Registry: reg})
	dmn, _ := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm", Registry: reg})
	sess, _ := dmn.OpenSession("alice")
	raw, _ := integrationProgram(5).MarshalJSON()
	dmn.Submit(sess.Token, daemon.SubmitRequest{Program: raw, Class: sched.ClassDev})
	clk.Advance(time.Minute)

	out := reg.Expose()
	// Every line is either a comment or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{"qpu_up", "qpu_shots_total", "daemon_jobs_total", "daemon_job_wait_seconds_bucket"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %s:\n%s", want, out)
		}
	}
}
