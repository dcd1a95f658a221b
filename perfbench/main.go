// Command perfbench is the repository benchmark. It drives the scheduler
// stack only through its public entry points, on three workloads:
//
//	replay-saturated  open-loop trace replay that saturates a 2-partition fleet
//	sweep-light       policy sweep over a lightly loaded 4-partition trace
//	http-live         closed loop of QRMI clients against a live HTTP daemon
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// Every run checks its outputs and the workload's purpose guards. An untraced
// run (--trace 0) prints the end-to-end metrics; a traced run (--trace 1)
// times each call into a layer from outside, prints the per-layer ledger and
// writes its spans under .bench_build/spans/. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet keeps metrics in insertion order for the human-readable table.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name string, value float64, unit string) {
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: value, Unit: unit}
}

// outcome is what one workload run produced.
type outcome struct {
	attempted, succeeded, failed int
	// metrics go into the JSON result line: the end-to-end set on an
	// untraced run, the per-layer set on a traced one.
	metrics metricSet
	// info is printed in the table only: figures that are defined on this
	// workload alone.
	info metricSet
	// violations lists every failed correctness check or purpose guard.
	violations []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.violations = append(o.violations, fmt.Sprintf(format, args...))
	}
}

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	size     string
	// workers bounds load-generating goroutines: sweep workers and HTTP
	// clients never exceed the CPU count.
	workers int
	log     io.Writer
}

type workloadFunc func(o options) (*outcome, error)

var workloads = map[string]workloadFunc{
	"replay-saturated": runReplaySaturated,
	"sweep-light":      runSweepLight,
	"http-live":        runHTTPLive,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload and prints its table and result line.
// It returns an error, and prints no result line, when the run could not
// complete; a run whose checks fail prints its result with correct=false and
// also returns an error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement time per run in seconds")
	traceFlag := fs.Int("trace", 0, "1 for a traced run that prints the per-layer ledger")
	size := fs.String("size", "full", "input size: full, or tiny for the self-test")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if *size != "full" && *size != "tiny" {
		return fmt.Errorf("unknown size %q (full or tiny)", *size)
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		size:     *size,
		workers:  min(2, runtime.NumCPU()),
		log:      stdout,
	}
	out, err := fn(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	printTable(stdout, o, out)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.violations) == 0, out.attempted, out.failed, out.metrics.m}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(out.violations) > 0 {
		return fmt.Errorf("%s: %d check(s) failed: %s", o.workload, len(out.violations), strings.Join(out.violations, "; "))
	}
	return nil
}

func printTable(w io.Writer, o options, out *outcome) {
	mode := "end-to-end"
	if o.traced {
		mode = "per-layer"
	}
	fmt.Fprintf(w, "%s seed=%d size=%s %s: attempted=%d succeeded=%d failed=%d\n",
		o.workload, o.seed, o.size, mode, out.attempted, out.succeeded, out.failed)
	for _, set := range []*metricSet{&out.metrics, &out.info} {
		for _, n := range set.names {
			m := set.m[n]
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, v := range out.violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
