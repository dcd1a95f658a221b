package daemon

import (
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
)

// newHintEnv is newEnv with the shortest-first within-class order enabled.
func newHintEnv(t *testing.T) *testEnv {
	t.Helper()
	env := newEnv(t)
	d, err := NewDaemon(Config{
		Devices:          []*device.Device{env.dev},
		Clock:            env.clk,
		AdminToken:       "admin-secret",
		EnablePreemption: true,
		Order:            shortestFirstOrder{},
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.d = d
	return env
}

func TestExpectedQPUEstimateFallback(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	few, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	many, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 50), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	if few.ExpectedQPUSeconds <= 0 || many.ExpectedQPUSeconds <= 0 {
		t.Fatalf("estimates not filled: few=%g many=%g", few.ExpectedQPUSeconds, many.ExpectedQPUSeconds)
	}
	// The estimate must track the quantum work: 10× the shots, strictly
	// longer expected hold.
	if many.ExpectedQPUSeconds <= few.ExpectedQPUSeconds {
		t.Fatalf("50-shot estimate %g !> 5-shot estimate %g", many.ExpectedQPUSeconds, few.ExpectedQPUSeconds)
	}
}

func TestExplicitHintOverridesEstimate(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	j, err := env.d.Submit(s.Token, SubmitRequest{
		Program: payload(t, 50), Class: sched.ClassDev, ExpectedQPUSeconds: 3.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.ExpectedQPUSeconds != 3.5 {
		t.Fatalf("expected hint 3.5 kept, got %g", j.ExpectedQPUSeconds)
	}
}

func TestNegativeHintRejected(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	if _, err := env.d.Submit(s.Token, SubmitRequest{
		Program: payload(t, 5), Class: sched.ClassDev, ExpectedQPUSeconds: -1,
	}); err == nil {
		t.Fatal("negative hint accepted")
	}
}

// drain runs the clock until the daemon has no queued or running work.
func drain(t *testing.T, env *testEnv) {
	t.Helper()
	for i := 0; i < 100; i++ {
		env.clk.Advance(time.Hour)
		q := env.d.QueueLengths()
		if q["production"]+q["test"]+q["dev"] == 0 {
			return
		}
	}
	t.Fatal("daemon did not drain")
}

func TestShortestFirstOrdering(t *testing.T) {
	env := newHintEnv(t)
	s, _ := env.d.OpenSession("alice")

	// The first job occupies the device; the rest pile up in the dev queue.
	blocker, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	long, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 60), Class: sched.ClassDev})
	short, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev})
	mid, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 30), Class: sched.ClassDev})

	drain(t, env)

	started := func(id string) time.Duration {
		t.Helper()
		j, err := env.d.JobStatus(s.Token, id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != JobCompleted {
			t.Fatalf("job %s state %s", id, j.State)
		}
		return j.StartedAt
	}
	b, l, sh, m := started(blocker.ID), started(long.ID), started(short.ID), started(mid.ID)
	// FIFO would run long → short → mid; shortest-first must run
	// short → mid → long after the blocker.
	if !(b < sh && sh < m && m < l) {
		t.Fatalf("start order blocker=%s short=%s mid=%s long=%s; want blocker<short<mid<long", b, sh, m, l)
	}
}

func TestShortestFirstNeverOutranksClass(t *testing.T) {
	env := newHintEnv(t)
	s, _ := env.d.OpenSession("alice")

	if _, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 10), Class: sched.ClassProduction}); err != nil {
		t.Fatal(err)
	}
	// Queue a production job far longer than a competing dev job.
	longProd, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 90), Class: sched.ClassProduction})
	shortDev, _ := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 2), Class: sched.ClassDev})

	drain(t, env)

	jp, _ := env.d.JobStatus(s.Token, longProd.ID)
	jd, _ := env.d.JobStatus(s.Token, shortDev.ID)
	if jp.StartedAt >= jd.StartedAt {
		t.Fatalf("production started %s, after dev %s — duration hint outranked class", jp.StartedAt, jd.StartedAt)
	}
}

func TestSourceAccounting(t *testing.T) {
	env := newEnv(t)
	s, _ := env.d.OpenSession("alice")
	def, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev})
	if err != nil {
		t.Fatal(err)
	}
	if def.Source != "slurm" {
		t.Fatalf("default source = %q, want slurm", def.Source)
	}
	cl, err := env.d.Submit(s.Token, SubmitRequest{Program: payload(t, 5), Class: sched.ClassDev, Source: "cloud"})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Source != "cloud" {
		t.Fatalf("source = %q, want cloud", cl.Source)
	}
	rep := env.d.AdminStatus()
	if rep.JobsBySource["slurm"] != 1 || rep.JobsBySource["cloud"] != 1 {
		t.Fatalf("JobsBySource = %v", rep.JobsBySource)
	}
}

// TestShortestFirstMeanWait is the ablation's core claim in miniature: on a
// backlog of unequal jobs, shortest-first strictly reduces the mean wait
// versus FIFO while the makespan (same total work) stays the same.
func TestShortestFirstMeanWait(t *testing.T) {
	run := func(order OrderPolicy) (meanWait time.Duration) {
		env := newEnv(t)
		d, err := NewDaemon(Config{
			Devices: []*device.Device{env.dev}, Clock: env.clk, AdminToken: "x",
			Order: order, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		env.d = d
		s, _ := d.OpenSession("alice")
		// Blocker, then a descending backlog — FIFO's worst case.
		var ids []string
		for _, shots := range []int{10, 80, 40, 20, 10, 5} {
			j, err := d.Submit(s.Token, SubmitRequest{Program: payload(t, shots), Class: sched.ClassDev})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		drain(t, env)
		var sum time.Duration
		for _, id := range ids {
			j, _ := d.JobStatus(s.Token, id)
			sum += j.StartedAt - j.SubmittedAt
		}
		return sum / time.Duration(len(ids))
	}
	fifo := run(fifoOrder{})
	sjf := run(shortestFirstOrder{})
	if sjf >= fifo {
		t.Fatalf("shortest-first mean wait %s !< FIFO %s", sjf, fifo)
	}
}
