package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hpcqc/internal/loadgen"
)

// declared is BENCHMARK.json's metric list: name → unit.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestWorkloadsPrintEveryMetric runs each workload at the tiny size, untraced
// and traced, and requires a correct result carrying exactly the declared
// metrics with their units, each also printed in the table.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace="+traced, func(t *testing.T) {
				var stdout bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.4", "--trace", traced, "--size", "tiny"}
				if err := run(args, &stdout); err != nil {
					t.Fatalf("run: %v\n%s", err, stdout.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if traced == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				table := stdout.String()
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v, want unit %q", name, m, unit)
					}
					if !strings.Contains(table, "  "+name+" ") || !strings.Contains(table, " "+unit+"\n") {
						t.Errorf("table does not print %s with unit %s", name, unit)
					}
				}
			})
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"--workload", "nope"}, &stdout); err == nil || stdout.Len() != 0 {
		t.Fatalf("err=%v stdout=%q, want an error and no result", err, stdout.String())
	}
}

// The checks below must each reject a corrupted output.

func TestResultCheckRejectsWrongShotTotals(t *testing.T) {
	good := []byte(`{"counts":{"00":7,"11":3},"qpu_seconds":10}`)
	if !resultMatches(good, 10) {
		t.Fatal("a result whose counts sum to the shots was rejected")
	}
	if resultMatches(good, 11) {
		t.Error("a result with wrong shot totals was accepted")
	}
	if resultMatches([]byte(`{"counts":`), 10) {
		t.Error("an undecodable result was accepted")
	}
}

func TestReportCheckRejectsLostJobs(t *testing.T) {
	rep := &loadgen.Report{Jobs: 10, Completed: 8, Failed: 1, Rejected: 1}
	if out := (&outcome{}); !checkReport(out, "ok", rep, 10) || len(out.violations) != 0 {
		t.Fatalf("a conserving report was rejected: %v", out.violations)
	}
	lost := *rep
	lost.Completed--
	if out := (&outcome{}); checkReport(out, "lost", &lost, 10) || len(out.violations) != 1 {
		t.Error("a report missing a terminal job was accepted")
	}
	errs := *rep
	errs.SubmitErrors = 1
	if out := (&outcome{}); checkReport(out, "errs", &errs, 10) || len(out.violations) != 1 {
		t.Error("a report with a submit error was accepted")
	}
}

func TestRedriveCheckRejectsDifferentBytes(t *testing.T) {
	rep := &loadgen.Report{Jobs: 1, Completed: 1}
	want, _ := json.Marshal(rep)
	if out := (&outcome{}); !checkRedrive(out, "same", rep, want) {
		t.Fatal("identical report bytes were rejected")
	}
	other := *rep
	other.Preemptions = 1
	if out := (&outcome{}); checkRedrive(out, "differs", &other, want) {
		t.Error("differing report bytes were accepted")
	}
}

func TestDigestCheckRejectsChangedSweep(t *testing.T) {
	a := []byte(`{"results":[1]}`)
	out := &outcome{}
	checkDigest(out, 1, a, digest(a))
	if len(out.violations) != 0 {
		t.Fatal("an unchanged sweep digest was rejected")
	}
	checkDigest(out, 2, []byte(`{"results":[2]}`), digest(a))
	if len(out.violations) != 1 {
		t.Error("a changed sweep digest was accepted")
	}
}

func TestPurposeGuards(t *testing.T) {
	out := &outcome{}
	guardSaturated(out, "full", 999)
	guardSaturated(out, "full", 1000)
	guardLight(out, maxLightDepth+1)
	guardLight(out, maxLightDepth)
	if len(out.violations) != 2 {
		t.Errorf("depth guards: got violations %v, want two", out.violations)
	}

	live := func(unexpected int64, completed, bad int) []string {
		run := &liveRun{clients: []*liveClient{{attempted: 3, completed: completed, badResults: bad}}}
		run.unexpected.Store(unexpected)
		out := &outcome{}
		checkLive(out, run)
		return out.violations
	}
	if v := live(0, 3, 0); len(v) != 0 {
		t.Fatalf("a clean live run was rejected: %v", v)
	}
	if v := live(1, 3, 0); len(v) != 1 {
		t.Errorf("a live run with an unexpected non-2xx response: got %v, want one violation", v)
	}
	if v := live(0, 2, 1); len(v) != 2 {
		t.Errorf("a live run with a bad result: got %v, want two violations", v)
	}
}
