package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
	"hpcqc/internal/telemetry"
)

// httpEnv hosts the daemon REST API on an httptest server. Nothing moves
// the clock on wall time: requests sent through hc advance it with the
// client's job-status polls (see pollClock).
type httpEnv struct {
	clk *simclock.Clock
	dev *device.Device
	d   *Daemon
	ts  *httptest.Server
	hc  *http.Client
}

// pollClock is an HTTP transport that jumps the simulation clock to its next
// scheduled event before each job-status poll (GET /api/v1/jobs/{id}), so a
// polling client sees its job progress one event per poll however slowly
// the test machine runs.
type pollClock struct{ clk *simclock.Clock }

func (p pollClock) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/api/v1/jobs/") &&
		!strings.HasSuffix(req.URL.Path, "/result") {
		if next, ok := p.clk.NextEventAt(); ok {
			p.clk.RunUntil(next)
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// pollingClient returns an HTTP client whose status polls advance clk.
func pollingClient(clk *simclock.Clock) *http.Client {
	return &http.Client{Transport: pollClock{clk: clk}}
}

func newHTTPEnv(t *testing.T) *httpEnv {
	t.Helper()
	clk := simclock.New()
	reg := telemetry.NewRegistry()
	dev, err := device.New(device.Config{Clock: clk, Seed: 21, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: []*device.Device{dev}, Clock: clk, AdminToken: "root-token",
		EnablePreemption: true, Registry: reg, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return &httpEnv{clk: clk, dev: dev, d: d, ts: ts, hc: pollingClient(clk)}
}

func httpDo(t *testing.T, method, url, token string, body any) (int, []byte) {
	t.Helper()
	return httpDoWith(t, http.DefaultClient, method, url, token, body)
}

func httpDoWith(t *testing.T, hc *http.Client, method, url, token string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func analogPayload(t *testing.T, shots int) json.RawMessage {
	t.Helper()
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	raw, err := qir.NewAnalogProgram(seq, shots).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestHTTPFullJobFlow(t *testing.T) {
	env := newHTTPEnv(t)
	// Open a session.
	code, data := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "alice"})
	if code != http.StatusCreated {
		t.Fatalf("session status = %d: %s", code, data)
	}
	var sess Session
	json.Unmarshal(data, &sess)

	// Device metadata.
	code, data = httpDo(t, "GET", env.ts.URL+"/api/v1/device", sess.Token, nil)
	if code != http.StatusOK || !strings.Contains(string(data), "analog-qpu") {
		t.Fatalf("device: %d %s", code, data)
	}

	// Submit.
	code, data = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"class":   "production",
		"pattern": "qc-heavy",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, data)
	}
	var job struct {
		ID string `json:"id"`
	}
	json.Unmarshal(data, &job)

	// Poll to completion; every poll advances the clock by one event.
	var state string
	for i := 0; i < 200 && state != "completed" && state != "failed"; i++ {
		_, data = httpDoWith(t, env.hc, "GET", env.ts.URL+"/api/v1/jobs/"+job.ID, sess.Token, nil)
		var st struct {
			State string `json:"state"`
		}
		json.Unmarshal(data, &st)
		state = st.State
	}
	if state != "completed" {
		t.Fatalf("final state = %s", state)
	}

	// Result.
	code, data = httpDo(t, "GET", env.ts.URL+"/api/v1/jobs/"+job.ID+"/result", sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, data)
	}
	var res qir.Result
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 10 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}

	// Close session.
	code, _ = httpDo(t, "DELETE", env.ts.URL+"/api/v1/sessions", sess.Token, nil)
	if code != http.StatusOK {
		t.Fatalf("close: %d", code)
	}
}

func TestHTTPAuthRequired(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "GET", env.ts.URL+"/api/v1/device", "", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("no token: %d", code)
	}
	code, _ = httpDo(t, "GET", env.ts.URL+"/api/v1/device", "fake-token", nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("bad token: %d", code)
	}
	// Health is public.
	code, _ = httpDo(t, "GET", env.ts.URL+"/healthz", "", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
}

func TestHTTPAdminEndpoints(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "GET", env.ts.URL+"/admin/v1/status", "wrong", nil)
	if code != http.StatusForbidden {
		t.Fatalf("bad admin token: %d", code)
	}
	code, data := httpDo(t, "GET", env.ts.URL+"/admin/v1/status", "root-token", nil)
	if code != http.StatusOK || !strings.Contains(string(data), "device") {
		t.Fatalf("admin status: %d %s", code, data)
	}
	code, data = httpDo(t, "POST", env.ts.URL+"/admin/v1/lowlevel/recalibrate", "root-token", nil)
	if code != http.StatusOK {
		t.Fatalf("recalibrate: %d %s", code, data)
	}
	code, _ = httpDo(t, "POST", env.ts.URL+"/admin/v1/lowlevel/detonate", "root-token", nil)
	if code != http.StatusForbidden {
		t.Fatalf("gated op: %d", code)
	}
	code, data = httpDo(t, "GET", env.ts.URL+"/admin/v1/jobs", "root-token", nil)
	if code != http.StatusOK {
		t.Fatalf("admin jobs: %d %s", code, data)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	env := newHTTPEnv(t)
	code, data := httpDo(t, "GET", env.ts.URL+"/metrics", "", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(string(data), "qpu_up") {
		t.Fatalf("metrics missing qpu_up:\n%s", data)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	env := newHTTPEnv(t)
	code, _ := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", "not an object")
	if code != http.StatusBadRequest {
		t.Fatalf("bad session body: %d", code)
	}
	_, data := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "u"})
	var sess Session
	json.Unmarshal(data, &sess)
	code, _ = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"class":   "warp-speed",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad class: %d", code)
	}
	code, _ = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 10),
		"pattern": "nonsense",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("bad pattern: %d", code)
	}
	code, _ = httpDo(t, "GET", env.ts.URL+"/api/v1/jobs/ghost", sess.Token, nil)
	if code != http.StatusNotFound {
		t.Fatalf("ghost job: %d", code)
	}
}

func TestDaemonQRMIClient(t *testing.T) {
	env := newHTTPEnv(t)
	c, err := NewClient(env.ts.URL, "alice", sched.ClassProduction, env.hc)
	if err != nil {
		t.Fatal(err)
	}
	md, err := c.Metadata()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := qrmi.SpecFromMetadata(md)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "analog-qpu" {
		t.Fatalf("spec = %+v", spec)
	}
	omega := 2 * math.Pi
	tPi := math.Pi / omega * 1000
	seq := qir.NewAnalogSequence(qir.LinearRegister("r", 1, 10))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
		Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
	})
	res, err := qrmi.RunProgram(c, qir.NewAnalogProgram(seq, 30), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.TotalShots() != 30 {
		t.Fatalf("shots = %d", res.Counts.TotalShots())
	}
	if p := res.Counts.Probability("1"); p < 0.85 {
		t.Fatalf("P(1) = %g", p)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDaemonQRMIFactory(t *testing.T) {
	env := newHTTPEnv(t)
	r, err := qrmi.ResolveResource(map[string]string{
		"resource":        "qpu-via-daemon",
		"resource_type":   "daemon",
		"daemon_endpoint": env.ts.URL,
		"daemon_user":     "carol",
		"daemon_class":    "test",
		"workload_hint":   "qc-balanced",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Target() != "daemon" {
		t.Fatalf("target = %s", r.Target())
	}
	if _, err := r.Metadata(); err != nil {
		t.Fatal(err)
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("", "", sched.ClassDev, nil); err == nil {
		t.Fatal("empty client accepted")
	}
}

// TestHTTPSubmitHintsRoundTrip: the §3.5 duration hint and the job source
// survive the REST boundary — sent on submit, visible on the job record.
func TestHTTPSubmitHintsRoundTrip(t *testing.T) {
	env := newHTTPEnv(t)
	code, body := httpDo(t, "POST", env.ts.URL+"/api/v1/sessions", "", map[string]string{"user": "alice"})
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("session = %d: %s", code, body)
	}
	var sess struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &sess); err != nil {
		t.Fatal(err)
	}

	code, body = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program":              analogPayload(t, 20),
		"class":                "dev",
		"source":               "cloud",
		"expected_qpu_seconds": 12.5,
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	var job struct {
		ID       string  `json:"id"`
		Source   string  `json:"source"`
		Expected float64 `json:"expected_qpu_seconds"`
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "cloud" || job.Expected != 12.5 {
		t.Fatalf("round trip: source=%q expected=%g", job.Source, job.Expected)
	}

	// Omitting both: source defaults to slurm, the hint to the daemon's
	// own estimate.
	code, body = httpDo(t, "POST", env.ts.URL+"/api/v1/jobs", sess.Token, map[string]any{
		"program": analogPayload(t, 20),
		"class":   "dev",
	})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	if job.Source != "slurm" || job.Expected <= 0 {
		t.Fatalf("defaults: source=%q expected=%g", job.Source, job.Expected)
	}
}
