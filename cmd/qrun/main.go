// Command qrun executes a quantum program on any configured resource —
// the user-facing realization of the paper's `--qpu=<resource>` switch.
// The same program file runs on a laptop emulator, an HPC tensor-network
// emulator, or the (simulated) QPU without modification.
//
// Usage:
//
//	qrun -qpu <resource> [-profiles qrmi.json] [-shots N] [-seed N] program.json
//	qrun -qpu <resource> -demo bell|pipulse|adiabatic [-shots N]
//
// The program file holds a serialized qir.Program. Demo programs are built
// in so the tool is usable without authoring JSON by hand.
//
// Besides the built-in emulator and direct-QPU types, a profile file may
// bind the middleware daemon ("resource_type": "daemon", with
// daemon_endpoint, daemon_user and daemon_class) or a cloud service
// ("resource_type": "cloud", with cloud_endpoint, cloud_device and
// cloud_token) — the production path behind --qpu.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	// The daemon and cloud QRMI resource types register in their packages'
	// init functions; linking them in lets profiles bind either.
	_ "hpcqc/internal/cloud"
	"hpcqc/internal/core"
	_ "hpcqc/internal/daemon"
	"hpcqc/internal/qir"
)

func main() {
	qpu := flag.String("qpu", "", "resource to execute on (default: profile catalogue default)")
	profiles := flag.String("profiles", "", "path to a QRMI profile catalogue (JSON)")
	shots := flag.Int("shots", 200, "shots for -demo programs")
	seed := flag.Int64("seed", 1, "deterministic seed")
	demo := flag.String("demo", "", "built-in demo program: bell, pipulse, adiabatic")
	flag.Parse()

	if err := run(os.Stdout, *qpu, *profiles, *demo, *shots, *seed, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "qrun:", err)
		os.Exit(1)
	}
}

// run binds the resource, executes the program and writes the report to w.
func run(w io.Writer, qpu, profilesPath, demo string, shots int, seed int64, args []string) error {
	environ := append(os.Environ(), fmt.Sprintf("QRMI_SEED=%d", seed))
	rt, err := core.NewRuntimeFor(qpu, profilesPath, environ)
	if err != nil {
		return err
	}
	spec := rt.Spec()
	fmt.Fprintf(w, "target: %s (max %d qubits", rt.Target(), spec.MaxQubits)
	if spec.ShotRateHz > 0 {
		fmt.Fprintf(w, ", %g Hz shot rate", spec.ShotRateHz)
	}
	fmt.Fprintln(w, ")")

	var program *qir.Program
	switch {
	case demo != "":
		program, err = demoProgram(demo, shots)
		if err != nil {
			return err
		}
	case len(args) == 1:
		raw, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		program = new(qir.Program)
		if err := json.Unmarshal(raw, program); err != nil {
			return fmt.Errorf("parsing %s: %w", args[0], err)
		}
	default:
		return fmt.Errorf("need a program file or -demo (got %d args)", len(args))
	}

	res, err := rt.Execute(program)
	if err != nil {
		return err
	}
	printResult(w, res)
	return nil
}

func demoProgram(name string, shots int) (*qir.Program, error) {
	omega := 2 * math.Pi
	switch name {
	case "bell":
		return qir.NewDigitalProgram(qir.NewCircuit(2).H(0).CX(0, 1), shots), nil
	case "pipulse":
		tPi := math.Pi / omega * 1000
		seq := qir.NewAnalogSequence(qir.LinearRegister("one", 1, 10))
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: tPi, Val: omega},
			Detuning:  qir.ConstantWaveform{Dur: tPi, Val: 0},
		})
		return qir.NewAnalogProgram(seq, shots), nil
	case "adiabatic":
		seq := qir.NewAnalogSequence(qir.LinearRegister("chain", 7, 5.5))
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 600, Start: 0, Stop: omega},
			Detuning:  qir.ConstantWaveform{Dur: 600, Val: -1.5 * omega},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.ConstantWaveform{Dur: 2500, Val: omega},
			Detuning:  qir.RampWaveform{Dur: 2500, Start: -1.5 * omega, Stop: 1.5 * omega},
		})
		seq.Add(qir.GlobalRydberg, qir.Pulse{
			Amplitude: qir.RampWaveform{Dur: 600, Start: omega, Stop: 0},
			Detuning:  qir.ConstantWaveform{Dur: 600, Val: 1.5 * omega},
		})
		return qir.NewAnalogProgram(seq, shots), nil
	default:
		return nil, fmt.Errorf("unknown demo %q (bell, pipulse, adiabatic)", name)
	}
}

func printResult(w io.Writer, res *qir.Result) {
	type kv struct {
		bits string
		n    int
	}
	var rows []kv
	for bits, n := range res.Counts {
		rows = append(rows, kv{bits, n})
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].n != rows[b].n {
			return rows[a].n > rows[b].n
		}
		return rows[a].bits < rows[b].bits
	})
	total := res.Counts.TotalShots()
	fmt.Fprintf(w, "counts (%d shots):\n", total)
	for i, r := range rows {
		if i >= 12 {
			fmt.Fprintf(w, "  ... %d more outcomes\n", len(rows)-i)
			break
		}
		fmt.Fprintf(w, "  %s  %6d  (%.3f)\n", r.bits, r.n, float64(r.n)/float64(total))
	}
	keys := make([]string, 0, len(res.Metadata))
	for k := range res.Metadata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w, "metadata:")
	for _, k := range keys {
		fmt.Fprintf(w, "  %s = %s\n", k, res.Metadata[k])
	}
}
