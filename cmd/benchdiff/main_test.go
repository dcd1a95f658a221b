package main

import "testing"

// TestParseResultLineStripsProcs: the same benchmark recorded at
// GOMAXPROCS 1 and 4 must parse to one name, or -require and the overhead
// rules could never match a baseline from a machine with another CPU count.
func TestParseResultLineStripsProcs(t *testing.T) {
	for _, line := range []string{
		"BenchmarkLoadgenReplay \t 490\t 2414169 ns/op\t 121781 jobs_per_wall_s",
		"BenchmarkLoadgenReplay-4 \t 490\t 2414169 ns/op\t 121781 jobs_per_wall_s",
	} {
		name, metrics, ok := parseResultLine(line)
		if !ok || name != "BenchmarkLoadgenReplay" || metrics["jobs_per_wall_s"] != 121781 {
			t.Fatalf("parseResultLine(%q) = %q, %v, %v", line, name, metrics, ok)
		}
	}
	if name, _, _ := parseResultLine("BenchmarkFleetDispatch/devices1-2 \t 58\t 19481028 ns/op"); name != "BenchmarkFleetDispatch/devices1" {
		t.Fatalf("sub-benchmark name = %q", name)
	}
	if _, _, ok := parseResultLine("ok  \thpcqc\t1.2s"); ok {
		t.Fatal("non-result line parsed")
	}
}
