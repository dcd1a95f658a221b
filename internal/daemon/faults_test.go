package daemon

import (
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
)

// newGatedEnv returns an env whose daemon may toggle maintenance.
func newGatedEnv(t *testing.T) *testEnv {
	t.Helper()
	env := newEnv(t)
	d, err := NewDaemon(Config{
		Devices: []*device.Device{env.dev}, Clock: env.clk, AdminToken: "admin-secret",
		EnablePreemption:   true,
		AllowedLowLevelOps: []string{"recalibrate", "qa_check", "maintenance_on", "maintenance_off"},
		Seed:               1,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.d = d
	return env
}

// TestJobsHeldThroughMaintenance: a maintenance window must park queued work,
// not fail it — and release it untouched when the window closes (§3.4: QA and
// maintenance are scheduled alongside user jobs).
func TestJobsHeldThroughMaintenance(t *testing.T) {
	env := newGatedEnv(t)
	s, _ := env.d.OpenSession("alice")

	// One job running, one queued.
	running, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 20), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := env.d.LowLevelOp("maintenance_on"); err != nil {
		t.Fatal(err)
	}
	// Submissions during the window are accepted and held, not bounced.
	during, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err != nil {
		t.Fatalf("submission during maintenance rejected: %v", err)
	}

	// Let plenty of simulated time pass: nothing new may start.
	env.clk.Advance(30 * time.Minute)
	for _, id := range []string{queued.ID, during.ID} {
		j, err := env.d.JobStatus(s.Token, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != JobQueued {
			t.Fatalf("job %s state = %s during maintenance, want queued", id, j.State)
		}
	}

	if _, err := env.d.LowLevelOp("maintenance_off"); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(2 * time.Hour)
	for _, id := range []string{running.ID, queued.ID, during.ID} {
		j, _ := env.d.JobStatus(s.Token, id)
		if j.State != JobCompleted {
			t.Fatalf("job %s state = %s after maintenance, want completed", id, j.State)
		}
	}
}

// TestQACheckReportsDegradation: an injected calibration fault flips the QA
// verdict, and recalibration restores it — the admin workflow for a degraded
// QPU.
func TestQACheckReportsDegradation(t *testing.T) {
	env := newGatedEnv(t)
	if out, err := env.d.LowLevelOp("qa_check"); err != nil || out != "qa passed" {
		t.Fatalf("healthy qa = %q, %v", out, err)
	}
	env.dev.InjectCalibrationError(0.30, 0)
	if out, err := env.d.LowLevelOp("qa_check"); err != nil || out == "qa passed" {
		t.Fatalf("degraded qa = %q, %v — fault not detected", out, err)
	}
	if _, err := env.d.LowLevelOp("recalibrate"); err != nil {
		t.Fatal(err)
	}
	if out, err := env.d.LowLevelOp("qa_check"); err != nil || out != "qa passed" {
		t.Fatalf("post-recalibration qa = %q, %v", out, err)
	}
}

// TestPreemptedJobSurvivesMaintenance: preemption parks the victim in the
// queue; a maintenance window opening before it re-runs must not lose it.
func TestPreemptedJobSurvivesMaintenance(t *testing.T) {
	env := newGatedEnv(t)
	s, _ := env.d.OpenSession("alice")

	victim, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 120), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(5 * time.Second)
	// Production arrival preempts the dev job mid-run.
	prod, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction})
	if err != nil {
		t.Fatal(err)
	}
	jv, _ := env.d.JobStatus(s.Token, victim.ID)
	if jv.Preemptions == 0 || jv.State != JobQueued {
		t.Fatalf("victim not preempted: state=%s preemptions=%d", jv.State, jv.Preemptions)
	}

	if _, err := env.d.LowLevelOp("maintenance_on"); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(10 * time.Minute)
	if _, err := env.d.LowLevelOp("maintenance_off"); err != nil {
		t.Fatal(err)
	}
	env.clk.Advance(3 * time.Hour)

	for _, id := range []string{victim.ID, prod.ID} {
		j, _ := env.d.JobStatus(s.Token, id)
		if j.State != JobCompleted {
			t.Fatalf("job %s = %s, want completed", id, j.State)
		}
	}
	if env.dev.Status() != device.StatusOnline {
		t.Fatalf("device status = %s", env.dev.Status())
	}
}
