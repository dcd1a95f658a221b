package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// durationsIn converts durations to float samples in the given unit.
func durationsIn(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// heapSampler tracks the high-water mark of live heap objects while it runs.
// runtime/metrics reads do not stop the world, so a 1 ms cadence costs
// little next to the workloads it watches.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// lap returns the peak in MB since the previous lap (or the start) and
// starts a new one. A run reports the median lap over its units of work: the
// peak of a single unit varies with where garbage collection fell, the
// median of many does not.
func (h *heapSampler) lap() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// finish ends sampling and waits for the sampler to exit.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// runtimeDelta is the allocation and GC work done between two snapshots.
type runtimeDelta struct {
	mallocs, bytes, gcs uint64
	pause               time.Duration
}

func (r *runtimeDelta) add(d runtimeDelta) {
	r.mallocs += d.mallocs
	r.bytes += d.bytes
	r.gcs += d.gcs
	r.pause += d.pause
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func deltaSince(before runtime.MemStats) runtimeDelta {
	after := memStats()
	return runtimeDelta{
		mallocs: after.Mallocs - before.Mallocs,
		bytes:   after.TotalAlloc - before.TotalAlloc,
		gcs:     uint64(after.NumGC - before.NumGC),
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// liveHeapMB collects garbage and returns the heap that is still reachable.
func liveHeapMB() float64 {
	runtime.GC()
	ms := memStats()
	return float64(ms.HeapAlloc) / (1 << 20)
}
