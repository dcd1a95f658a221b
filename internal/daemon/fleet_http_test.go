package daemon

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hpcqc/internal/device"
	"hpcqc/internal/qir"
	"hpcqc/internal/qrmi"
	"hpcqc/internal/sched"
	"hpcqc/internal/simclock"
)

// newFleetHTTPEnv hosts a 3-partition daemon on an httptest server,
// mirroring newHTTPEnv: the returned client's status polls advance the clock.
func newFleetHTTPEnv(t *testing.T) (*Daemon, *device.Fleet, *httptest.Server, *http.Client) {
	t.Helper()
	clk := simclock.New()
	fleet, err := device.NewFleet(3, device.Config{Clock: clk, Seed: 21, DriftInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(Config{
		Devices: fleet.Devices(), Clock: clk, AdminToken: "root-token",
		EnablePreemption: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(d.Handler())
	t.Cleanup(ts.Close)
	return d, fleet, ts, pollingClient(clk)
}

// TestClientPartitionPinning exercises the QRMI client against the fleet
// API: acquisition against a named partition, task execution pinned there,
// and rejection of unknown partition names at acquire time.
func TestClientPartitionPinning(t *testing.T) {
	_, fleet, ts, hc := newFleetHTTPEnv(t)
	ids := fleet.IDs()

	c, err := NewClient(ts.URL, "alice", sched.ClassTest, hc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Partitions()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1] != ids[1] {
		t.Fatalf("partitions = %v, want %v", got, ids)
	}

	c.Partition = ids[2]
	if _, err := c.Acquire(); err != nil {
		t.Fatalf("acquire against named partition: %v", err)
	}
	prog := new(qir.Program)
	if err := prog.UnmarshalJSON(payload(t, 10)); err != nil {
		t.Fatal(err)
	}
	raw, err := qrmi.RunProgram(c, prog, 200)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Counts.TotalShots() != 10 {
		t.Fatalf("shots = %d", raw.Counts.TotalShots())
	}

	c.Partition = "not-a-partition"
	if _, err := c.Acquire(); err == nil {
		t.Fatal("acquire against unknown partition accepted")
	}
	if _, err := c.TaskStart(payload(t, 5)); err == nil {
		t.Fatal("task start against unknown partition accepted")
	}
}
