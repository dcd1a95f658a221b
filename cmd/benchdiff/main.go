// Command benchdiff compares two test2json benchmark recordings (the
// BENCH_fleet.json format written by `make bench-json`) and fails when a
// throughput metric regresses past a threshold. It is the CI gate behind
// `make bench-diff`: the committed baseline is the contract, a fresh run is
// the candidate, and a >20 % drop in any jobs/wall-second metric is a build
// failure rather than a silent slide.
//
// Usage:
//
//	benchdiff [-threshold 0.20] [-metrics m1,m2] [-trace-overhead 0.10]
//	          [-priority-overhead 0.10] [-require b1,b2] baseline.json fresh.json
//
// Only explicitly guarded metrics are compared; ns/op and sim-time metrics
// vary with benchtime and fleet width in ways that are not regressions. The
// -metrics list is higher-is-better (a drop fails); the -lower-metrics list
// is lower-is-better (a rise fails) and guards the sweep engine's peak-heap
// bound. Benchmarks present in one file but not the other are
// reported but never fail the diff, so adding or renaming a benchmark does
// not require regenerating the baseline in the same commit — except the
// benchmarks named by -require, which must appear in both files: those are
// the gate's load-bearing members, and silently dropping one (a renamed
// benchmark, a stale baseline) would otherwise turn the gate into a no-op.
//
// Two intra-run rules ride along, both built on the same interleaved-ratio
// construction: a benchmark runs its instrumented and baseline variants back
// to back inside the same iterations and reports their cost ratio, which
// makes the rule immune both to machine-speed noise across files and to the
// heap-growth drift between benchmarks minutes apart in one run. The traced
// replay benchmark reports trace_overhead_pct, capped by -trace-overhead —
// span emission is sold as allocation-lean observation, and this is where
// that claim is enforced. The priority replay benchmark reports
// priority_overhead_pct — the cost of slo-urgency's keyed pop over the
// constant policy's — capped by -priority-overhead: the deadline axis must
// stay a scheduling knob, not a replay throughput tax.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// event is the subset of a test2json line benchdiff needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// defaultMetrics are the wall-clock throughput metrics guarded by default.
const defaultMetrics = "jobs_per_wall_s,replayed_jobs_per_wall_s,cells_per_wall_s"

// defaultLowerMetrics are the lower-is-better metrics guarded by default: a
// rise past the threshold fails. peak_heap_mb is the sweep engine's
// bounded-memory contract — the worker pool exists so a thousand-cell matrix
// holds a few cells of scratch, not a goroutine per cell — and this is where
// that bound is enforced.
const defaultLowerMetrics = "peak_heap_mb"

// parseFile reconstructs the benchmark result lines from a test2json stream
// and returns metric values per benchmark: bench → metric unit → value.
// test2json splits one logical result line across output events (the padded
// name ends one event, the numbers arrive in the next), so the stream's
// output text is reassembled before line parsing.
func parseFile(path string) (map[string]map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var text strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("%s: not a test2json stream: %w", path, err)
		}
		if ev.Action == "output" {
			text.WriteString(ev.Output)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	results := make(map[string]map[string]float64)
	for _, line := range strings.Split(text.String(), "\n") {
		name, metrics, ok := parseResultLine(line)
		if !ok {
			continue
		}
		results[name] = metrics
	}
	return results, nil
}

// parseResultLine parses one `BenchmarkName  N  v1 unit1  v2 unit2 ...`
// result line. ok is false for non-result lines. The name drops the -P
// GOMAXPROCS suffix `go test` appends when P > 1, so recordings from
// machines with different CPU counts name the same benchmark the same way.
func parseResultLine(line string) (string, map[string]float64, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if i := strings.LastIndexByte(fields[0], '-'); i > 0 {
		if _, err := strconv.Atoi(fields[0][i+1:]); err == nil {
			fields[0] = fields[0][:i]
		}
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	metrics := make(map[string]float64)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = v
	}
	if len(metrics) == 0 {
		return "", nil, false
	}
	return fields[0], metrics, true
}

func main() {
	threshold := flag.Float64("threshold", 0.20, "maximum allowed fractional drop in a guarded metric")
	metricsFlag := flag.String("metrics", defaultMetrics, "comma-separated higher-is-better metrics to guard")
	lowerFlag := flag.String("lower-metrics", defaultLowerMetrics, "comma-separated lower-is-better metrics to guard (a rise past the threshold fails)")
	traceOverhead := flag.Float64("trace-overhead", 0.10, "maximum fractional jobs/wall-s cost of the traced replay vs the untraced one, same run")
	priorityOverhead := flag.Float64("priority-overhead", 0.10, "maximum fractional replay cost of the slo-urgency priority axis vs the constant default, same run")
	require := flag.String("require", "", "comma-separated benchmarks that must be present in both files")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.20] [-metrics m1,m2] [-trace-overhead 0.10] [-require b1,b2] baseline.json fresh.json")
		os.Exit(2)
	}
	baseline, err := parseFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := parseFile(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	guarded := make(map[string]bool)
	for _, m := range strings.Split(*metricsFlag, ",") {
		if m = strings.TrimSpace(m); m != "" {
			guarded[m] = true
		}
	}
	lower := make(map[string]bool)
	for _, m := range strings.Split(*lowerFlag, ",") {
		if m = strings.TrimSpace(m); m != "" {
			lower[m] = true
		}
	}
	// Required benchmarks must exist on both sides before any comparison:
	// a missing one means the gate would silently stop guarding it.
	for _, name := range strings.Split(*require, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		missing := false
		if _, ok := baseline[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: required benchmark %s absent from baseline %s\n", name, flag.Arg(0))
			missing = true
		}
		if _, ok := fresh[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchdiff: required benchmark %s absent from fresh run %s\n", name, flag.Arg(1))
			missing = true
		}
		if missing {
			os.Exit(1)
		}
	}

	benches := make([]string, 0, len(baseline))
	for name := range baseline {
		benches = append(benches, name)
	}
	// Sorted output keeps the diff log stable across runs.
	for i := 0; i < len(benches); i++ {
		for j := i + 1; j < len(benches); j++ {
			if benches[j] < benches[i] {
				benches[i], benches[j] = benches[j], benches[i]
			}
		}
	}

	failed := false
	compared := 0
	for _, name := range benches {
		fm, ok := fresh[name]
		if !ok {
			fmt.Printf("SKIP %s: absent from fresh run\n", name)
			continue
		}
		for metric, base := range baseline[name] {
			if (!guarded[metric] && !lower[metric]) || base <= 0 {
				continue
			}
			cur, ok := fm[metric]
			if !ok {
				fmt.Printf("SKIP %s %s: absent from fresh run\n", name, metric)
				continue
			}
			compared++
			change := (cur - base) / base
			status := "ok  "
			// Higher-is-better fails on a drop; lower-is-better on a rise.
			if lower[metric] {
				if change > *threshold {
					status = "FAIL"
					failed = true
				}
			} else if change < -*threshold {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s %s %s: baseline %.0f, fresh %.0f (%+.1f%%)\n",
				status, name, metric, base, cur, change*100)
		}
	}
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			fmt.Printf("NEW  %s: absent from baseline\n", name)
		}
	}
	// Tracing-overhead rule: the interleaved traced/untraced cost ratio the
	// traced replay benchmark measured within its own iterations.
	if pct, ok := fresh["BenchmarkLoadgenReplayTraced"]["trace_overhead_pct"]; ok {
		compared++
		status := "ok  "
		if pct > *traceOverhead*100 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s tracing overhead: %.1f%% traced-vs-untraced replay cost (limit %.0f%%)\n",
			status, pct, *traceOverhead*100)
	}
	// Priority-axis rule: the interleaved slo-urgency/constant cost ratio the
	// priority replay benchmark measured within its own iterations.
	if pct, ok := fresh["BenchmarkLoadgenReplayPriority"]["priority_overhead_pct"]; ok {
		compared++
		status := "ok  "
		if pct > *priorityOverhead*100 {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("%s priority overhead: %.1f%% slo-urgency-vs-constant replay cost (limit %.0f%%)\n",
			status, pct, *priorityOverhead*100)
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no guarded metrics in common — wrong files?")
		os.Exit(2)
	}
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: benchmark gate failed (threshold %.0f%% vs %s, tracing overhead limit %.0f%%, priority overhead limit %.0f%%)\n",
			*threshold*100, flag.Arg(0), *traceOverhead*100, *priorityOverhead*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d guarded metrics within %.0f%% of baseline\n", compared, *threshold*100)
}
