package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer of the system. Times
// are nanoseconds since the trace origin; Parent and Job are -1 when the call
// has no enclosing span or serves no single job.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Job    int64  `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records nested spans for one goroutine. A nil *tracer records
// nothing, so the traced and untraced re-drives share one code path.
type tracer struct {
	origin time.Time
	idBase int64
	spans  []span
	open   []int
}

// newTracer returns a tracer whose span IDs start at idBase, so spans of
// several goroutines can be merged without collisions.
func newTracer(origin time.Time, idBase int64) *tracer {
	return &tracer{origin: origin, idBase: idBase}
}

// begin opens a span under the innermost open one and returns its handle.
func (t *tracer) begin(name string, job int64) int {
	if t == nil {
		return -1
	}
	parent := int64(-1)
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{
		Name: name, ID: t.idBase + int64(i), Parent: parent, Job: job,
		Start: int64(time.Since(t.origin)),
	})
	t.open = append(t.open, i)
	return i
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// current returns the ID of the innermost open span, or -1.
func (t *tracer) current() int64 {
	if t == nil || len(t.open) == 0 {
		return -1
	}
	return t.spans[t.open[len(t.open)-1]].ID
}

// spanSink collects finished spans from many goroutines (the HTTP handler
// side of the live workload).
type spanSink struct {
	mu     sync.Mutex
	origin time.Time
	nextID int64
	spans  []span
}

func (s *spanSink) add(name string, parent, job int64, start, end time.Time) {
	s.mu.Lock()
	s.spans = append(s.spans, span{
		Name: name, ID: s.nextID, Parent: parent, Job: job,
		Start: int64(start.Sub(s.origin)), End: int64(end.Sub(s.origin)),
	})
	s.nextID++
	s.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	calls int
	total time.Duration   // inclusive
	self  time.Duration   // minus the time covered by child spans
	selfs []time.Duration // per-call self time
}

// selfTimes folds spans into per-name statistics. A span's self time is its
// duration minus the durations of its direct children.
func selfTimes(spans []span) map[string]*layerStat {
	child := make(map[int64]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := time.Duration(s.End - s.Start)
		self := dur - time.Duration(child[s.ID])
		st.calls++
		st.total += dur
		st.self += self
		st.selfs = append(st.selfs, self)
	}
	return out
}

// ledgerLine is one row of the per-layer ledger.
type ledgerLine struct {
	layer string
	calls int
	self  time.Duration
}

// printLedger writes self time per layer against the end-to-end wall time it
// should add up to, with the unexplained residue as its own row, and returns
// that residue as a percentage of wall.
func printLedger(w io.Writer, title string, lines []ledgerLine, wall time.Duration) float64 {
	fmt.Fprintf(w, "ledger %s (wall %.3f ms)\n", title, ms(wall))
	fmt.Fprintf(w, "  %-34s %10s %12s %7s\n", "layer", "calls", "self_ms", "share")
	var sum time.Duration
	for _, l := range lines {
		sum += l.self
		fmt.Fprintf(w, "  %-34s %10d %12.3f %6.1f%%\n", l.layer, l.calls, ms(l.self), pct(l.self, wall))
	}
	residue := wall - sum
	fmt.Fprintf(w, "  %-34s %10s %12.3f %6.1f%%\n", "(sum of layers)", "", ms(sum), pct(sum, wall))
	fmt.Fprintf(w, "  %-34s %10s %12.3f %6.1f%%\n", "(unexplained residue)", "", ms(residue), pct(residue, wall))
	return pct(residue, wall)
}

// writeSpans writes spans as JSON lines to path, creating its directory.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func pct(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
