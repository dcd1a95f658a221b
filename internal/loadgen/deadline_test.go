package loadgen

import (
	"bytes"
	"math"
	"testing"
	"time"

	"hpcqc/internal/experiments"
	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// deadlineTrial runs the fifo-vs-slo-urgency cell pair for one seed of the
// saturating bursty workload and returns the paired production
// deadline-hit-rates, plus the full sweep for satellite assertions.
func deadlineTrial(t *testing.T, seed int64, horizon time.Duration) (*SweepReport, *Report, *Report) {
	t.Helper()
	proc, err := NewProcess("bursty", 600)
	if err != nil {
		t.Fatal(err)
	}
	// The default contracts never stress production: strict class priority
	// plus preemption keeps its waits under the 2 m allowance even under
	// bursts. Tighten production to a 30 s base with a 3× service factor so
	// FIFO's arrival order actually costs hits when a burst stacks
	// production jobs behind each other (heterogeneous allowances are what
	// least-slack-first exploits; a pure flat allowance would make
	// slo-urgency degenerate to FIFO within the class).
	deadlines := workload.DefaultDeadlines()
	deadlines[sched.ClassProduction] = workload.DeadlineSpec{Base: 30 * time.Second, ServiceFactor: 3}
	tr, err := Generate(Config{
		Seed:      seed,
		Horizon:   horizon,
		Process:   proc,
		Deadlines: deadlines,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sweep(tr, SweepConfig{
		Devices:    2,
		Seed:       seed,
		Routers:    []string{"least-loaded"},
		Schedulers: []string{"fifo"},
		Admissions: []string{"accept-all"},
		Priorities: []string{"constant", "slo-urgency"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fifo := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", Priority: "constant"})
	slo := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", Priority: "slo-urgency"})
	if fifo == nil || slo == nil {
		t.Fatalf("sweep missing a priority cell: constant=%v slo-urgency=%v", fifo != nil, slo != nil)
	}
	return s, fifo, slo
}

// checkDeadlineAccounting asserts the report's deadline bookkeeping is
// internally consistent: every deadline job is a hit or a miss, the hit rate
// is the quotient, and lateness quantiles exist whenever completions do.
func checkDeadlineAccounting(t *testing.T, rep *Report) {
	t.Helper()
	sawDeadlines := false
	for class, c := range rep.PerClass {
		if c.DeadlineJobs == 0 {
			if c.DeadlineHits != 0 || c.DeadlineMisses != 0 || c.DeadlineHitRate != 0 || c.LatenessSeconds != nil {
				t.Fatalf("%s/%s: deadline fields set with no deadline jobs", rep.Priority, class)
			}
			continue
		}
		sawDeadlines = true
		if c.DeadlineHits+c.DeadlineMisses != c.DeadlineJobs {
			t.Fatalf("%s/%s: hits %d + misses %d != deadline jobs %d",
				rep.Priority, class, c.DeadlineHits, c.DeadlineMisses, c.DeadlineJobs)
		}
		want := float64(c.DeadlineHits) / float64(c.DeadlineJobs)
		if math.Abs(c.DeadlineHitRate-want) > 1e-12 {
			t.Fatalf("%s/%s: hit rate %g != %d/%d", rep.Priority, class, c.DeadlineHitRate, c.DeadlineHits, c.DeadlineJobs)
		}
		if c.DeadlineHits > 0 && c.LatenessSeconds == nil {
			t.Fatalf("%s/%s: hits recorded but no lateness quantiles", rep.Priority, class)
		}
	}
	if !sawDeadlines {
		t.Fatalf("report %q has no deadline jobs at all", rep.Priority)
	}
}

// TestSweepDeadlineDominance24h is the deadline-axis acceptance experiment,
// run in the seed-replicated style the refuted H2 hypothesis mandated: on a
// saturating 24 h bursty trace with per-class deadline contracts,
// slo-urgency must beat plain FIFO on production deadline-hit-rate on EVERY
// seed — not on one lucky draw — while best-effort (dev) lateness stays
// within a bounded regression, and the whole sweep remains byte-identical on
// rerun. The -short slice replays a single seed over a shorter horizon and
// checks the accounting plus byte-stability only.
func TestSweepDeadlineDominance24h(t *testing.T) {
	if testing.Short() {
		s1, fifo, slo := deadlineTrial(t, 2, 4*time.Hour)
		checkDeadlineAccounting(t, fifo)
		checkDeadlineAccounting(t, slo)
		s2, _, _ := deadlineTrial(t, 2, 4*time.Hour)
		if !bytes.Equal(marshalReport(t, s1), marshalReport(t, s2)) {
			t.Fatal("deadline smoke sweep differs between identical reruns")
		}
		return
	}

	seeds := []int64{1, 2, 3, 4, 5}
	type cells struct{ fifo, slo *Report }
	bySeed := make(map[int64]cells)
	res, err := experiments.RunDominance(
		"production deadline-hit-rate", "slo-urgency", "fifo", seeds,
		func(seed int64) (float64, float64, error) {
			_, fifo, slo := deadlineTrial(t, seed, 24*time.Hour)
			checkDeadlineAccounting(t, fifo)
			checkDeadlineAccounting(t, slo)
			bySeed[seed] = cells{fifo, slo}
			return slo.PerClass["production"].DeadlineHitRate, fifo.PerClass["production"].DeadlineHitRate, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	for _, seed := range seeds {
		c := bySeed[seed]
		fp, sp := c.fifo.PerClass["production"], c.slo.PerClass["production"]
		fd, sd := c.fifo.PerClass["dev"], c.slo.PerClass["dev"]
		t.Logf("seed %d: prod hit %d/%d -> %d/%d; dev lateness p99 %.1fs -> %.1fs",
			seed, fp.DeadlineHits, fp.DeadlineJobs, sp.DeadlineHits, sp.DeadlineJobs,
			fd.LatenessSeconds.P99, sd.LatenessSeconds.P99)
		// Urgency must not buy production hits by wrecking best-effort work:
		// dev completed-job lateness p99 stays within a 10% regression of
		// FIFO's (in practice slo-urgency slightly improves it — the aging
		// term drains old dev work first once production clears).
		if fd.LatenessSeconds == nil || sd.LatenessSeconds == nil {
			t.Fatalf("seed %d: missing dev lateness quantiles", seed)
		}
		if sd.LatenessSeconds.P99 > fd.LatenessSeconds.P99*1.10 {
			t.Errorf("seed %d: dev lateness p99 regressed %.1fs -> %.1fs (> 10%%)",
				seed, fd.LatenessSeconds.P99, sd.LatenessSeconds.P99)
		}
		// Both cells replay the identical admitted workload.
		if sp.Jobs != fp.Jobs || sp.DeadlineJobs != fp.DeadlineJobs {
			t.Errorf("seed %d: cells saw different production workloads: %d/%d vs %d/%d jobs",
				seed, sp.Jobs, sp.DeadlineJobs, fp.Jobs, fp.DeadlineJobs)
		}
	}
	if !res.Dominant() {
		t.Errorf("slo-urgency won only %d/%d seeds on production deadline-hit-rate", res.AWins, len(seeds))
	}
	if res.PHat <= 0.5 {
		t.Errorf("Mann–Whitney p̂ = %.3f, want > 0.5", res.PHat)
	}

	// Determinism: the deadline-stamped sweep is as reproducible as every
	// other; rerunning one seed at full horizon must be byte-identical.
	s1, _, _ := deadlineTrial(t, seeds[0], 24*time.Hour)
	s2, _, _ := deadlineTrial(t, seeds[0], 24*time.Hour)
	if !bytes.Equal(marshalReport(t, s1), marshalReport(t, s2)) {
		t.Fatal("deadline dominance sweep differs between identical reruns")
	}
}

// TestDeadlineUnsaturatedNegativeControl is the dominance experiment's
// control arm, mirroring the refuted-H2 lesson that a policy effect must
// vanish when its mechanism has nothing to act on: at 15 jobs/hour the queue
// is almost always empty, so ranking it cannot move outcomes, and every
// priority policy must produce statistically indistinguishable reports —
// identical completion counts and shed rates, equal production
// deadline-hit-rates, and a Mann–Whitney p̂ at the 0.5 no-effect point
// across seeds.
func TestDeadlineUnsaturatedNegativeControl(t *testing.T) {
	if testing.Short() {
		t.Skip("unsaturated negative-control sweep is a test-full experiment")
	}
	seeds := []int64{1, 2, 3, 4, 5}
	sweepAt := func(seed int64) *SweepReport {
		tr, err := Generate(Config{
			Seed:      seed,
			Horizon:   24 * time.Hour,
			Process:   &Poisson{RatePerHour: 15},
			Deadlines: workload.DefaultDeadlines(),
		})
		if err != nil {
			t.Fatal(err)
		}
		s, err := Sweep(tr, SweepConfig{
			Devices:    4,
			Seed:       seed,
			Routers:    []string{"least-loaded"},
			Schedulers: []string{"fifo"},
			Admissions: []string{"accept-all"},
			Priorities: []string{"all"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	res, err := experiments.RunDominance(
		"production deadline-hit-rate (unsaturated)", "slo-urgency", "fifo", seeds,
		func(seed int64) (float64, float64, error) {
			s := sweepAt(seed)
			base := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", Priority: "constant"})
			if base == nil {
				t.Fatal("missing constant cell")
			}
			for _, name := range AllPriorities()[1:] {
				cell := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", Priority: name})
				if cell == nil {
					t.Fatalf("missing %s cell", name)
				}
				if cell.Completed != base.Completed || cell.Failed != base.Failed || cell.Rejected != base.Rejected {
					t.Errorf("seed %d: %s outcome counts diverge from constant: %d/%d/%d vs %d/%d/%d",
						seed, name, cell.Completed, cell.Failed, cell.Rejected,
						base.Completed, base.Failed, base.Rejected)
				}
				bp, cp := base.PerClass["production"], cell.PerClass["production"]
				if math.Abs(cp.DeadlineHitRate-bp.DeadlineHitRate) > 0.01 {
					t.Errorf("seed %d: %s production hit rate %.4f vs constant %.4f",
						seed, name, cp.DeadlineHitRate, bp.DeadlineHitRate)
				}
			}
			slo := s.FindCell(Cell{Router: "least-loaded", Scheduler: "fifo", Admission: "accept-all", Priority: "slo-urgency"})
			return slo.PerClass["production"].DeadlineHitRate, base.PerClass["production"].DeadlineHitRate, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Table())
	if res.Dominant() {
		t.Error("slo-urgency dominated fifo on an unsaturated trace — the control arm should show no effect")
	}
	if math.Abs(res.PHat-0.5) > 0.1 {
		t.Errorf("unsaturated Mann–Whitney p̂ = %.3f, want ≈ 0.5 (no effect)", res.PHat)
	}
}
