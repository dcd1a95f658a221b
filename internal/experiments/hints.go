package experiments

import (
	"fmt"
	"time"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// HintsRow compares one within-class ordering policy on the same backlog.
type HintsRow struct {
	Setup        string
	DevMeanWait  time.Duration
	DevMaxWait   time.Duration
	ProdWait     time.Duration
	Makespan     time.Duration
	OrderInverts int
}

// RunDurationHints executes ablation A8 (paper §3.5 and §4 future work): the
// submitter — or failing that, the daemon's own estimate from the validated
// program — declares the expected QPU hold time, and the second-level
// scheduler orders jobs within a class shortest-expected-first. On a backlog
// of unequal dev jobs this reduces the mean wait versus arrival-order FIFO
// without changing the total work, and a production arrival still outranks
// every dev job regardless of its duration hint.
func RunDurationHints(seed int64) ([]HintsRow, *Table, error) {
	// A descending backlog is FIFO's worst case: everyone queues behind
	// the big jobs that happened to arrive first.
	devShots := []int{10, 300, 150, 80, 40, 20, 10, 5}
	const prodShots = 30
	prodArrival := 100 * time.Second

	run := func(setup, scheduler string) (*HintsRow, error) {
		clk := simclock.New()
		dev, err := device.New(device.Config{Clock: clk, Seed: seed, DriftInterval: time.Hour})
		if err != nil {
			return nil, err
		}
		order, err := daemon.NewOrder(scheduler)
		if err != nil {
			return nil, err
		}
		dmn, err := daemon.NewDaemon(daemon.Config{
			Devices: []*device.Device{dev}, Clock: clk, AdminToken: "admin",
			EnablePreemption: true, Order: order, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		sess, err := dmn.OpenSession("dev-user")
		if err != nil {
			return nil, err
		}
		var devIDs []string
		for i, shots := range devShots {
			raw, err := figure2Program(shots).MarshalJSON()
			if err != nil {
				return nil, err
			}
			// Submissions land in order with 1 s spacing so FIFO's
			// arrival order is well defined.
			at := time.Duration(i) * time.Second
			clk.Schedule(at, "submit-dev", func() {
				j, err := dmn.Submit(sess.Token, daemon.SubmitRequest{
					Program: raw, Class: sched.ClassDev,
				})
				if err == nil {
					devIDs = append(devIDs, j.ID)
				}
			})
		}
		var prodID string
		clk.Schedule(prodArrival, "submit-prod", func() {
			raw, err := figure2Program(prodShots).MarshalJSON()
			if err != nil {
				return
			}
			j, err := dmn.Submit(sess.Token, daemon.SubmitRequest{
				Program: raw, Class: sched.ClassProduction,
			})
			if err == nil {
				prodID = j.ID
			}
		})
		clk.RunUntil(6 * time.Hour)

		row := &HintsRow{Setup: setup}
		var lastEnd time.Duration
		prevStart := time.Duration(-1)
		for _, id := range devIDs {
			j, err := dmn.JobStatus(sess.Token, id)
			if err != nil {
				return nil, err
			}
			if j.State != daemon.JobCompleted {
				return nil, fmt.Errorf("experiments: dev job %s ended %s", id, j.State)
			}
			w := j.StartedAt - j.SubmittedAt
			row.DevMeanWait += w
			if w > row.DevMaxWait {
				row.DevMaxWait = w
			}
			if j.FinishedAt > lastEnd {
				lastEnd = j.FinishedAt
			}
			// Count inversions of arrival order — zero under FIFO,
			// positive when duration hints reorder the backlog.
			if prevStart >= 0 && j.StartedAt < prevStart {
				row.OrderInverts++
			}
			prevStart = j.StartedAt
		}
		row.DevMeanWait /= time.Duration(len(devIDs))
		if prodID != "" {
			j, err := dmn.JobStatus(sess.Token, prodID)
			if err != nil {
				return nil, err
			}
			row.ProdWait = j.StartedAt - j.SubmittedAt
			if j.FinishedAt > lastEnd {
				lastEnd = j.FinishedAt
			}
		}
		row.Makespan = lastEnd
		return row, nil
	}

	fifo, err := run("fifo-within-class", "fifo")
	if err != nil {
		return nil, nil, err
	}
	sjf, err := run("shortest-expected-first", "shortest-first")
	if err != nil {
		return nil, nil, err
	}
	rows := []HintsRow{*fifo, *sjf}
	table := &Table{
		Title:   "A8: expected-QPU-duration hints (§3.5) — within-class order on an unequal dev backlog",
		Columns: []string{"setup", "dev_mean_wait", "dev_max_wait", "prod_wait", "makespan", "reorderings"},
	}
	for _, r := range rows {
		table.Rows = append(table.Rows, []string{
			r.Setup, fmtDur(r.DevMeanWait), fmtDur(r.DevMaxWait),
			fmtDur(r.ProdWait), fmtDur(r.Makespan), fmt.Sprintf("%d", r.OrderInverts),
		})
	}
	return rows, table, nil
}
