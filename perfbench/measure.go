package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"bankaware/internal/stats"
)

func median(xs []float64) float64 { return stats.Percentile(xs, 50) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// heapSampler polls the live heap while the timed part runs, recording
// the peak since the last reset. runtime/metrics reads do not stop the
// world, so polling does not perturb the measured work.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	stop chan struct{}
	done chan struct{}
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readMetric(heapObjects)
	h.mu.Lock()
	if v > h.peak {
		h.peak = v
	}
	h.mu.Unlock()
}

// takePeak returns the peak since the previous call and starts a new
// window at the current heap size.
func (h *heapSampler) takePeak() uint64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

func (h *heapSampler) close() {
	close(h.stop)
	<-h.done
}

// rounds is what the round loop measured: per-round wall seconds, bytes
// allocated, and the heap peak above the live heap the round started with
// (so state a workload keeps across rounds, such as the daemon's job
// index, does not count).
type rounds struct {
	wall, cpu, allocMB, peakMB []float64
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measureRounds runs round repeatedly until the measuring window has
// passed, with at least minRounds rounds. Each round starts from a
// collected heap, so its allocation and heap peak describe that round
// alone; the collection itself is outside the timing.
func measureRounds(seconds float64, minRounds int, round func(i int) error) (rounds, error) {
	var out rounds
	hs := startHeapSampler()
	defer hs.close()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		runtime.GC()
		base := readMetric(heapObjects)
		hs.takePeak()
		a0 := readMetric("/gc/heap/allocs:bytes")
		t := time.Now()
		c := cpuSeconds()
		if err := round(i); err != nil {
			return out, err
		}
		out.wall = append(out.wall, time.Since(t).Seconds())
		out.cpu = append(out.cpu, cpuSeconds()-c)
		out.allocMB = append(out.allocMB, float64(readMetric("/gc/heap/allocs:bytes")-a0)/1e6)
		peak := hs.takePeak()
		out.peakMB = append(out.peakMB, float64(peak-min(peak, base))/1e6)
	}
	return out, nil
}

// report sets the end-to-end metrics every workload shares, each the
// median over the run's rounds. Every round's wall time is printed too:
// on a shared host the same work runs up to 1.6x slower for seconds at a
// time while neighbours contend for the core and its caches.
func (rs rounds) report(r *run) {
	r.set("campaign_s", median(rs.wall), "s")
	r.set("alloc_mb", median(rs.allocMB), "MB")
	r.set("peak_heap_mb", median(rs.peakMB), "MB")
	r.note("rounds", float64(len(rs.wall)), "count")
	r.note("campaign_s.min", minOf(rs.wall), "s")
	r.note("campaign_s.max", maxOf(rs.wall), "s")
	r.note("cpu_s.median", median(rs.cpu), "s")
	r.list("campaign_s.rounds", rs.wall)
}

// savedOutput is one saved benchmark output, as compareOutputs reads it.
type savedOutput struct {
	host   host
	result result
}

func readOutput(path string) (savedOutput, error) {
	var out savedOutput
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var haveHost bool
	var last string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "host "); ok {
			if err := json.Unmarshal([]byte(rest), &out.host); err != nil {
				return out, fmt.Errorf("%s: host line: %w", path, err)
			}
			haveHost = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if !haveHost {
		return out, fmt.Errorf("%s: no host line", path)
	}
	if err := json.Unmarshal([]byte(last), &out.result); err != nil {
		return out, fmt.Errorf("%s: result line: %w", path, err)
	}
	return out, nil
}

// compareOutputs prints each metric of the second output relative to the
// first, and refuses outright when the two hosts' topologies differ.
func compareOutputs(arg string) error {
	paths := strings.Split(arg, ",")
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants two paths, got %q", arg)
	}
	a, err := readOutput(paths[0])
	if err != nil {
		return err
	}
	b, err := readOutput(paths[1])
	if err != nil {
		return err
	}
	if a.host != b.host {
		return fmt.Errorf("refusing to compare results from different hosts: %+v vs %+v", a.host, b.host)
	}
	names := make([]string, 0, len(a.result.Metrics))
	for n := range a.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := a.result.Metrics[n]
		mb, ok := b.result.Metrics[n]
		if !ok {
			fmt.Printf("%-28s %12.6g %-8s (missing in %s)\n", n, ma.Value, ma.Unit, paths[1])
			continue
		}
		delta := math.NaN()
		if ma.Value != 0 {
			delta = (mb.Value - ma.Value) / ma.Value * 100
		}
		fmt.Printf("%-28s %12.6g -> %-12.6g %-8s %+7.2f%%\n", n, ma.Value, mb.Value, ma.Unit, delta)
	}
	return nil
}
