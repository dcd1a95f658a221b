package main

import (
	"encoding/json"
	"go/build"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hpcqc/internal/daemon"
	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/simclock"
)

func TestDemoPrograms(t *testing.T) {
	for _, name := range []string{"bell", "pipulse", "adiabatic"} {
		p, err := demoProgram(name, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Shots != 50 {
			t.Fatalf("%s: shots = %d", name, p.Shots)
		}
		if err := p.Validate(nil); err != nil {
			t.Fatalf("%s: invalid: %v", name, err)
		}
	}
	if _, err := demoProgram("nonsense", 10); err == nil {
		t.Fatal("unknown demo accepted")
	}
}

func TestRunDemoOnLocalEmulator(t *testing.T) {
	if err := run(io.Discard, "local-sv", "", "bell", 20, 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunProgramFile(t *testing.T) {
	p, _ := demoProgram("pipulse", 10)
	raw, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, "local-sv", "", "", 0, 2, []string{path}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDemoThroughDaemonProfile binds qrun to the middleware through a
// "daemon" profile — the --qpu path to production — and runs the bell demo
// on an httptest daemon serving one digital partition. The server jumps the
// simulation clock to its next event before each job-status poll, so the
// job advances one event per poll however slowly the machine runs.
func TestRunDemoThroughDaemonProfile(t *testing.T) {
	clk := simclock.New()
	dev, err := device.New(device.Config{Clock: clk, Seed: 5, Spec: qir.DefaultDigitalSpec()})
	if err != nil {
		t.Fatal(err)
	}
	d, err := daemon.NewDaemon(daemon.Config{Devices: []*device.Device{dev}, Clock: clk, AdminToken: "adm", EnablePreemption: true})
	if err != nil {
		t.Fatal(err)
	}
	api := d.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/api/v1/jobs/") &&
			!strings.HasSuffix(r.URL.Path, "/result") {
			if next, ok := clk.NextEventAt(); ok {
				clk.RunUntil(next)
			}
		}
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()
	raw, err := json.Marshal(map[string]any{"profiles": map[string]any{"site-daemon": map[string]string{
		"resource_type":   "daemon",
		"daemon_endpoint": ts.URL,
		"daemon_user":     "alice",
		"daemon_class":    "production",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "qrmi.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(&out, "site-daemon", path, "bell", 40, 1, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "counts (40 shots):") {
		t.Fatalf("qrun output lacks the 40-shot total:\n%s", out.String())
	}
	jobs := d.ListJobs()
	if len(jobs) != 1 || jobs[0].State != daemon.JobCompleted || jobs[0].User != "alice" {
		t.Fatalf("daemon jobs = %+v", jobs)
	}
}

// TestResourceTypesLinked: the daemon and cloud QRMI resource types register
// in their packages' init functions. This test binary imports the daemon
// package itself, so the profile test above would pass even if qrun did not;
// the command's own imports must carry both.
func TestResourceTypesLinked(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hpcqc/internal/daemon", "hpcqc/internal/cloud"} {
		if !slices.Contains(pkg.Imports, want) {
			t.Errorf("qrun does not import %s, so profiles cannot bind its resource type", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(io.Discard, "ghost-resource", "", "bell", 10, 1, nil); err == nil {
		t.Fatal("unknown resource accepted")
	}
	if err := run(io.Discard, "local-sv", "", "", 10, 1, nil); err == nil {
		t.Fatal("missing program accepted")
	}
	if err := run(io.Discard, "local-sv", "", "", 10, 1, []string{"/does/not/exist.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if err := run(io.Discard, "local-sv", "", "", 10, 1, []string{bad}); err == nil {
		t.Fatal("bad file accepted")
	}
}

func TestPrintResultHandlesManyOutcomes(t *testing.T) {
	counts := make(qir.Counts)
	for i := 0; i < 30; i++ {
		counts[bitstringOf(i)] = i + 1
	}
	printResult(io.Discard, &qir.Result{Counts: counts, Metadata: map[string]string{"backend": "x"}})
}

func bitstringOf(i int) string {
	b := make([]byte, 5)
	for q := 0; q < 5; q++ {
		if (i>>uint(q))&1 == 1 {
			b[q] = '1'
		} else {
			b[q] = '0'
		}
	}
	return string(b)
}
