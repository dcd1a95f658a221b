package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hpcqc/internal/loadgen"
	"hpcqc/internal/qir"
	"hpcqc/internal/sched"
	"hpcqc/internal/workload"
)

// Every input below is a pure function of the run's seed.

// patternMix and serviceScale are loadgen's generation defaults, spelled out
// so the fleet capacity the rates are derived from matches the trace.
var patternMix = workload.Mix{QCHeavy: 1, CCHeavy: 1, Balanced: 2}

const serviceScale = 0.2

// meanServiceSeconds is the mean QPU hold time of a generated job at the
// canonical 1 Hz shot rate: the mix-weighted quantum footprint times the
// service scale (jitter is symmetric, so it cancels).
func meanServiceSeconds() float64 {
	specs := workload.DefaultPatternSpecs()
	weighted := float64(patternMix.QCHeavy)*specs[sched.PatternQCHeavy].TotalQuantum().Seconds() +
		float64(patternMix.CCHeavy)*specs[sched.PatternCCHeavy].TotalQuantum().Seconds() +
		float64(patternMix.Balanced)*specs[sched.PatternBalanced].TotalQuantum().Seconds()
	return weighted / float64(patternMix.Total()) * serviceScale
}

// capacityPerHour is how many mean-sized jobs a fleet serves per hour.
func capacityPerHour(devices int) float64 {
	return float64(devices) * 3600 / meanServiceSeconds()
}

// periodicBursts is an on/off arrival process with fixed phase lengths and
// Poisson arrivals inside each phase. loadgen's bursty process draws its
// phase lengths at random, which makes the offered load of a one-day trace
// swing by tens of percent between seeds; fixed phases keep the load, and so
// the benchmark's figures, comparable across seeds while arrivals stay random.
type periodicBursts struct {
	burstRate, idleRate float64 // jobs per hour
	burst, idle         time.Duration
}

// newPeriodicBursts matches loadgen.NewProcess("bursty") in shape: bursts at
// 5.5× the mean rate for 10 minutes, then 50 minutes at 0.1×.
func newPeriodicBursts(ratePerHour float64) *periodicBursts {
	return &periodicBursts{
		burstRate: 5.5 * ratePerHour, idleRate: 0.1 * ratePerHour,
		burst: 10 * time.Minute, idle: 50 * time.Minute,
	}
}

func (p *periodicBursts) Name() string { return "periodic-bursty" }

func (p *periodicBursts) Validate() error {
	if p.burstRate <= 0 || p.idleRate <= 0 || p.burst <= 0 || p.idle <= 0 {
		return fmt.Errorf("periodic-bursty: rates and phases must be positive")
	}
	return nil
}

// Next draws an exponential gap at the current phase's rate; a draw past the
// phase end restarts from the boundary, which memorylessness makes exact.
func (p *periodicBursts) Next(rng *rand.Rand, after time.Duration) time.Duration {
	period := p.burst + p.idle
	cur := after
	for {
		start := cur - cur%period
		end, rate := start+p.burst, p.burstRate
		if cur-start >= p.burst {
			end, rate = start+period, p.idleRate
		}
		t := cur + time.Duration(rng.ExpFloat64()/rate*float64(time.Hour))
		if t < end {
			return t
		}
		cur = end
	}
}

// Workload shapes. The tiny size exists for the self-test.
const (
	saturatedDevices = 2
	saturatedLoad    = 3.4 // offered load over fleet capacity
	saturatedUsers   = 256
	lightDevices     = 4
	lightLoad        = 0.5
	lightUsers       = 64
	lightPrograms    = 12
	lightCache       = 64
	lightSetup       = 30.0 // cold-setup QPU seconds per program-cache miss
)

// Each replay input is the first N jobs of a generated trace, so every seed
// offers the same amount of work; the generation horizon leaves several
// standard deviations of Poisson headroom above N.
type traceSize struct {
	horizon time.Duration
	jobs    int
}

func saturatedSize(size string) traceSize {
	if size == "tiny" {
		return traceSize{2 * time.Hour, 1000}
	}
	return traceSize{24 * time.Hour, 13500}
}

func lightSize(size string) traceSize {
	if size == "tiny" {
		return traceSize{time.Hour, 120}
	}
	return traceSize{9 * time.Hour, 1300}
}

// firstJobs generates a trace and keeps its first n records; the horizon
// ends just after the last of them.
func firstJobs(cfg loadgen.Config, ts traceSize) (*loadgen.Trace, error) {
	cfg.Horizon = ts.horizon
	tr, err := loadgen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if len(tr.Records) < ts.jobs {
		return nil, fmt.Errorf("generated %d jobs, want at least %d", len(tr.Records), ts.jobs)
	}
	tr.Records = tr.Records[:ts.jobs]
	tr.Header.Jobs = ts.jobs
	tr.Header.HorizonUS = tr.Records[ts.jobs-1].AtUS + 1
	return tr, nil
}

// traceCount is how many independent traces a replay workload cycles
// through. What a replay costs depends on how its arrivals fell; averaging
// over several traces keeps that from varying by seed.
const traceCount = 3

// traceSet generates traceCount traces from seeds derived from seed.
func traceSet(seed int64, size string, gen func(int64, string) (*loadgen.Trace, error)) ([]*loadgen.Trace, error) {
	traces := make([]*loadgen.Trace, traceCount)
	for k := range traces {
		var err error
		if traces[k], err = gen(seed*traceCount+int64(k), size); err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// saturatedTrace is one of replay-saturated's inputs: bursty arrivals at 3.4×
// the capacity of two partitions, the default class mix with per-class
// deadlines, and 256 submitters.
func saturatedTrace(seed int64, size string) (*loadgen.Trace, error) {
	return firstJobs(loadgen.Config{
		Seed:         seed,
		Process:      newPeriodicBursts(saturatedLoad * capacityPerHour(saturatedDevices)),
		Patterns:     patternMix,
		ServiceScale: serviceScale,
		Users:        saturatedUsers,
		Deadlines:    workload.DefaultDeadlines(),
	}, saturatedSize(size))
}

// lightTrace is sweep-light's input: Poisson arrivals at half the capacity of
// four partitions, drawn from twelve program variants per pattern.
func lightTrace(seed int64, size string) (*loadgen.Trace, error) {
	return firstJobs(loadgen.Config{
		Seed:         seed,
		Process:      &loadgen.Poisson{RatePerHour: lightLoad * capacityPerHour(lightDevices)},
		Patterns:     patternMix,
		ServiceScale: serviceScale,
		Users:        lightUsers,
		Programs:     lightPrograms,
	}, lightSize(size))
}

// liveJob is one http-live submission: a parameter-sweep point whose drive
// amplitude is unique to the job, so every payload is new to the daemon.
type liveJob struct {
	payload []byte
	shots   int
}

// liveJobs yields one client's job stream. Shot counts follow the trace
// generator's pattern mix, so a job holds the QPU as long as a replayed one.
type liveJobs struct {
	rng    *rand.Rand
	specs  map[sched.Pattern]workload.PatternSpec
	client int
	n      int
}

func newLiveJobs(seed int64, client int) *liveJobs {
	return &liveJobs{
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(client))),
		specs:  workload.DefaultPatternSpecs(),
		client: client,
	}
}

func (l *liveJobs) next() (liveJob, error) {
	pattern, err := patternMix.Sample(l.rng)
	if err != nil {
		return liveJob{}, err
	}
	base := l.specs[pattern].TotalQuantum().Seconds() * serviceScale
	shots := max(1, int(math.Round(base*(0.8+0.4*l.rng.Float64()))))
	// Amplitudes walk a golden-ratio sequence through [π/2, 3π/2] rad/µs,
	// distinct for every job of the run and far enough below the spec's
	// Rabi limit that days of simulated calibration drift never push a
	// distorted pulse past it.
	l.n++
	frac := math.Mod(float64(l.n)*0.6180339887498949+float64(l.client)*0.5+l.rng.Float64()*1e-9, 1)
	amp := math.Pi * (0.5 + frac)
	payload, err := liveProgram(amp, shots).MarshalJSON()
	if err != nil {
		return liveJob{}, err
	}
	return liveJob{payload: payload, shots: shots}, nil
}

// liveProgram is a 50 ns global drive of the given amplitude on two atoms
// spaced beyond the blockade radius — loadgen's canonical program with the
// amplitude as the swept parameter.
func liveProgram(amp float64, shots int) *qir.Program {
	const pulseNs = 50
	seq := qir.NewAnalogSequence(qir.LinearRegister("perfbench", 2, 20))
	seq.Add(qir.GlobalRydberg, qir.Pulse{
		Amplitude: qir.ConstantWaveform{Dur: pulseNs, Val: amp},
		Detuning:  qir.ConstantWaveform{Dur: pulseNs, Val: 0},
	})
	return qir.NewAnalogProgram(seq, shots)
}
