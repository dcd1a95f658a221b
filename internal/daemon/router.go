package daemon

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hpcqc/internal/device"
	"hpcqc/internal/sched"
)

// Routing and scheduling are independent policy axes over the fleet: a
// Router answers "which partition" at submission time, and each partition's
// sched.ClassQueue answers "what order" on that partition. Keeping the axes
// composable means any router works with any within-class order (FIFO,
// fair-share, shortest-expected-first) without either policy knowing about
// the other.
//
// Since the calibration-affinity work, every router is a preset over one
// weighted multi-scorer core: per pick, each configured scorer grades every
// eligible partition into [0, 1], the grades are combined with normalized
// weights, and the highest combined score wins (ties break to the lowest
// fleet index, so picks are deterministic). The historical single-policy
// routers are single-scorer presets with weight 1 and keep their names and
// exact pick sequences; the parameterized "affinity" router blends the load,
// cache-affinity and class-home scorers with configurable weights.

// DeviceInfo is the router's point-in-time view of one fleet partition.
type DeviceInfo struct {
	// ID is the device's fleet-unique identifier.
	ID string
	// Index is the partition's position in the daemon's fleet slice.
	Index int
	// Status is the device availability state at pick time.
	Status device.Status
	// Queued counts jobs waiting in this partition's class queues.
	Queued int
	// Busy reports whether a job occupies the partition right now.
	Busy bool
	// RunningClass is the class of the occupying job; valid only when Busy.
	RunningClass sched.Class

	// cache is the partition's program cache (nil when disabled) — the
	// affinity scorer's O(1) warm-set probe. The daemon fills it; probes are
	// side-effect-free, so scoring never perturbs cache state.
	cache *progLRU
}

// load is the scalar the least-loaded policy minimizes.
func (i DeviceInfo) load() int {
	n := i.Queued
	if i.Busy {
		n++
	}
	return n
}

// Router picks the target partition for a job. Pick must return an index
// into infos; infos always has at least one entry and is ordered by fleet
// index. Routers should avoid partitions in maintenance when any other is
// available (jobs routed to a maintenance partition wait for it to return).
// Pick may be called concurrently.
type Router interface {
	// Name identifies the policy for logs and status reports.
	Name() string
	// Pick selects the partition index for the job.
	Pick(job *Job, infos []DeviceInfo) int
}

// eligibleInto fills buf with the indices of partitions not in maintenance,
// or every index when the whole fleet is down (the job then waits out the
// window, matching single-device semantics). Reusing the caller's buffer
// keeps Pick allocation-free on the dispatch hot path.
func eligibleInto(buf []int, infos []DeviceInfo) []int {
	buf = buf[:0]
	for i, info := range infos {
		if info.Status != device.StatusMaintenance {
			buf = append(buf, i)
		}
	}
	if len(buf) == 0 {
		for i := range infos {
			buf = append(buf, i)
		}
	}
	return buf
}

// scorer grades every eligible partition for a job into out (aligned with
// el; higher is better, values in [0, 1]). score is called exactly once per
// Pick, which is what lets the round-robin scorer keep rotation state.
type scorer interface {
	name() string
	score(j *Job, infos []DeviceInfo, el []int, out []float64)
}

// leastLoadedPick is the shared load-balancing fallback: minimum load over
// the eligible set, ties to the lowest fleet index.
func leastLoadedPick(infos []DeviceInfo, el []int) int {
	best := el[0]
	for _, i := range el[1:] {
		if infos[i].load() < infos[best].load() {
			best = i
		}
	}
	return best
}

// loadScorer grades by instantaneous backlog: score 1/(1+load), so an idle
// partition scores 1 and scores decay toward 0 as the queue grows. Argmax
// with lowest-index ties reproduces the classic least-loaded pick exactly.
type loadScorer struct{}

func (loadScorer) name() string { return "load" }

func (loadScorer) score(_ *Job, infos []DeviceInfo, el []int, out []float64) {
	for k, i := range el {
		out[k] = 1.0 / (1.0 + float64(infos[i].load()))
	}
}

// affinityScorer grades by program-cache warmth: 1 when the partition's
// cache holds the job's program fingerprint, else 0. With caching disabled
// (nil cache or no fingerprint) every partition scores 0 and the scorer is
// inert. The probe is an O(1) map lookup per partition — no scans.
type affinityScorer struct{}

func (affinityScorer) name() string { return "affinity" }

func (affinityScorer) score(j *Job, infos []DeviceInfo, el []int, out []float64) {
	for k, i := range el {
		if infos[i].cache.contains(j.progHash) {
			out[k] = 1
		} else {
			out[k] = 0
		}
	}
}

// homePriorScorer is the class-home prior: 1.0 on the job's class-home
// partition (production → 0, test → 1, dev → 2 — the class-affinity
// isolation prior), 0.5 everywhere else. Every partition shares the fleet's
// one device spec, so the prior is the whole grade. Its weight key keeps the
// historical spelling "cap", so affinity router names in reports are stable.
type homePriorScorer struct{}

func (homePriorScorer) name() string { return "cap" }

func (homePriorScorer) score(j *Job, _ []DeviceInfo, el []int, out []float64) {
	home := int(sched.ClassProduction - j.Class)
	for k, i := range el {
		if i == home {
			out[k] = 1
		} else {
			out[k] = 0.5
		}
	}
}

// roundRobinScorer rotates a full score across the eligible set in pick
// order — the stateful scorer behind the round-robin preset. Relies on the
// one-score-call-per-Pick contract to advance exactly once per job.
type roundRobinScorer struct {
	next int
}

func (*roundRobinScorer) name() string { return "round-robin" }

func (r *roundRobinScorer) score(_ *Job, _ []DeviceInfo, el []int, out []float64) {
	for k := range el {
		out[k] = 0
	}
	out[r.next%len(el)] = 1
	r.next++
}

// classHomeScorer encodes the class-affinity placement rules as a one-hot
// grade: the partition the rules choose scores 1, everything else 0. The
// rules are deliberately rule-shaped rather than a smooth formula — spill
// only to provably idle capacity, never back onto partition 0 — so the
// scorer computes the rule pick and one-hots it, which makes the policy
// composable with the other scorers without changing its standalone
// behavior one bit.
//
// The rules (unchanged from the pre-scorer classAffinityRouter): each class
// has a home partition (production → 0, test → 1, dev → 2) so production
// traffic is isolated from dev churn. Fleets smaller than the class count
// spill the overflow classes across the non-production partitions (never
// back onto partition 0, which would defeat the isolation), and a home in
// maintenance falls back to the least-loaded eligible partition.
//
// Saturation spill: a non-production job whose home partition is saturated
// (busy with backlog, load ≥ 2) overflows to the lowest-index completely idle
// non-home partition, excluding partition 0 — trading a little isolation for
// wait time only when there is provably idle capacity. Production never
// spills: it preempts on its home, and keeping it on partition 0 is the
// isolation the policy exists for.
type classHomeScorer struct{}

func (classHomeScorer) name() string { return "class" }

func (classHomeScorer) score(j *Job, infos []DeviceInfo, el []int, out []float64) {
	target := classHomePick(j, infos, el)
	for k, i := range el {
		if i == target {
			out[k] = 1
		} else {
			out[k] = 0
		}
	}
}

// classHomePick applies the class-affinity rules over the eligible set.
func classHomePick(j *Job, infos []DeviceInfo, el []int) int {
	home := int(sched.ClassProduction - j.Class)
	if home < 0 {
		// Out-of-range classes (possible for direct Pick callers; Submit
		// validates before routing) fall back to load balancing.
		return leastLoadedPick(infos, el)
	}
	if home < len(infos) {
		if infos[home].Status == device.StatusMaintenance {
			return leastLoadedPick(infos, el)
		}
		if j.Class != sched.ClassProduction && infos[home].load() >= 2 {
			for i := 1; i < len(infos); i++ {
				if i == home {
					continue
				}
				if infos[i].Status != device.StatusMaintenance && infos[i].load() == 0 {
					return i
				}
			}
		}
		return home
	}
	// Overflow class on a small fleet: least-loaded among the
	// non-production partitions, keeping partition 0 clear for production.
	best := -1
	for i := 1; i < len(infos); i++ {
		if infos[i].Status == device.StatusMaintenance {
			continue
		}
		if best == -1 || infos[i].load() < infos[best].load() {
			best = i
		}
	}
	if best >= 0 {
		return best
	}
	return leastLoadedPick(infos, el)
}

// weightedRouter is the multi-scorer core every routing policy is a preset
// of. Pick grades the eligible partitions with each positively-weighted
// scorer, combines the grades with the normalized weights, and returns the
// argmax — ties to the lowest fleet index, so the pick sequence is a pure
// function of the (job, fleet-view) sequence. The scratch buffers are reused
// across picks under the mutex, keeping the hot path allocation-free.
type weightedRouter struct {
	label   string
	scorers []scorer
	weights []float64 // same length as scorers, normalized to sum 1

	mu  sync.Mutex
	el  []int
	buf []float64
	acc []float64
}

// newWeightedRouter normalizes the weights (dropping nothing — zero-weight
// scorers are kept but skipped per pick) and rejects non-positive totals.
func newWeightedRouter(label string, scorers []scorer, weights []float64) (*weightedRouter, error) {
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("daemon: router %q: negative weight %g for scorer %q", label, w, scorers[i].name())
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("daemon: router %q: at least one scorer weight must be positive", label)
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / total
	}
	return &weightedRouter{label: label, scorers: scorers, weights: norm}, nil
}

func (r *weightedRouter) Name() string { return r.label }

func (r *weightedRouter) Pick(j *Job, infos []DeviceInfo) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.el = eligibleInto(r.el, infos)
	el := r.el
	if cap(r.acc) < len(el) {
		r.acc = make([]float64, len(el))
		r.buf = make([]float64, len(el))
	}
	acc := r.acc[:len(el)]
	buf := r.buf[:len(el)]
	for k := range acc {
		acc[k] = 0
	}
	for si, s := range r.scorers {
		w := r.weights[si]
		if w == 0 {
			continue
		}
		s.score(j, infos, el, buf)
		for k := range el {
			acc[k] += w * buf[k]
		}
	}
	best := 0
	for k := 1; k < len(el); k++ {
		if acc[k] > acc[best] {
			best = k
		}
	}
	return el[best]
}

// NewRoundRobinRouter spreads submissions evenly across the fleet
// irrespective of load — the cheapest policy, and a fair baseline when jobs
// are similar in size.
func NewRoundRobinRouter() Router {
	r, _ := newWeightedRouter("round-robin", []scorer{&roundRobinScorer{}}, []float64{1})
	return r
}

// NewLeastLoadedRouter balances by instantaneous backlog — the default
// policy, and the right one under heterogeneous job sizes.
func NewLeastLoadedRouter() Router {
	r, _ := newWeightedRouter("least-loaded", []scorer{loadScorer{}}, []float64{1})
	return r
}

// NewClassAffinityRouter isolates classes onto dedicated partitions, trading
// some load balance for fewer cross-class preemptions.
func NewClassAffinityRouter() Router {
	r, _ := newWeightedRouter("class-affinity", []scorer{classHomeScorer{}}, []float64{1})
	return r
}

// Default affinity-router weights: load still dominates (idle capacity beats
// warmth when the spread is large), warmth breaks backlog near-ties (a 0.3
// bonus outweighs the load-score gap between, say, 3 and 5 queued jobs), and
// the class-home grade is a thin prior.
const (
	defaultAffinityLoadWeight = 0.6
	defaultAffinityWarmWeight = 0.3
	defaultAffinityCapWeight  = 0.1
)

// NewAffinityRouter blends the load, cache-affinity and class-home scorers
// with the given weights (each ≥ 0, at least one positive; they are
// normalized internally). label becomes the router's reported name.
func NewAffinityRouter(label string, load, warm, home float64) (Router, error) {
	return newWeightedRouter(label,
		[]scorer{loadScorer{}, affinityScorer{}, homePriorScorer{}},
		[]float64{load, warm, home})
}

// routerUsage is the catalogue NewRouter errors point at.
const routerUsage = "round-robin, least-loaded, class-affinity, affinity[:load=W:affinity=W:cap=W]"

// NewRouter builds a router by policy name — the switch behind qcsd's
// -router flag and the sweep axis values. The three classic names take no
// parameters. "affinity" accepts colon-separated key=value weights for its
// three scorers (load, affinity, and cap — the class-home prior), e.g.
// "affinity:load=0.6:affinity=0.3:cap=0.1"; omitted keys keep the defaults,
// and the full spelling is preserved as the router's name so reports stay
// self-describing.
func NewRouter(policy string) (Router, error) {
	base, params, hasParams := strings.Cut(policy, ":")
	switch base {
	case "round-robin":
		if hasParams {
			return nil, fmt.Errorf("daemon: router %q takes no parameters", base)
		}
		return NewRoundRobinRouter(), nil
	case "least-loaded", "":
		if hasParams {
			return nil, fmt.Errorf("daemon: router %q takes no parameters", base)
		}
		return NewLeastLoadedRouter(), nil
	case "class-affinity":
		if hasParams {
			return nil, fmt.Errorf("daemon: router %q takes no parameters", base)
		}
		return NewClassAffinityRouter(), nil
	case "affinity":
		load, warm, home := defaultAffinityLoadWeight, defaultAffinityWarmWeight, defaultAffinityCapWeight
		if hasParams {
			for _, kv := range strings.Split(params, ":") {
				key, val, ok := strings.Cut(kv, "=")
				if !ok {
					return nil, fmt.Errorf("daemon: router affinity: parameter %q is not key=value", kv)
				}
				w, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("daemon: router affinity: weight %s=%q is not a number", key, val)
				}
				switch key {
				case "load":
					load = w
				case "affinity":
					warm = w
				case "cap":
					home = w
				default:
					return nil, fmt.Errorf("daemon: router affinity: unknown parameter %q (load, affinity, cap)", key)
				}
			}
		}
		return NewAffinityRouter(policy, load, warm, home)
	default:
		return nil, fmt.Errorf("daemon: unknown router policy %q (%s)", policy, routerUsage)
	}
}
