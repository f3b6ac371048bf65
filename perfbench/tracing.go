package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// streamBatch is how many events a timed stream generates per refill: large
// enough that the two clock reads per batch are noise next to the
// generator work they bracket.
const streamBatch = 4096

// timedStream feeds a generator's events to the simulator through a batch
// buffer and times every refill. The generator's output does not depend on
// when it is asked, so the simulated result is unchanged.
type timedStream struct {
	gen    *trace.Generator
	buf    []trace.Event
	pos    int
	busy   time.Duration
	events uint64
}

func (t *timedStream) Next() trace.Event {
	if t.pos == len(t.buf) {
		start := time.Now()
		t.buf = t.buf[:cap(t.buf)]
		for i := range t.buf {
			t.buf[i] = t.gen.Next()
		}
		t.busy += time.Since(start)
		t.events += uint64(len(t.buf))
		t.pos = 0
	}
	ev := t.buf[t.pos]
	t.pos++
	return ev
}

// timedStreams builds the per-core generators exactly as sim.New does,
// each behind a timed stream.
func timedStreams(cfg sim.Config, specs []trace.Spec) ([]*timedStream, []trace.Stream, error) {
	rng := stats.NewRNG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	timed := make([]*timedStream, len(specs))
	streams := make([]trace.Stream, len(specs))
	for i, s := range specs {
		g, err := trace.NewGenerator(s, rng.Split(uint64(i)), trace.GeneratorConfig{
			BlocksPerWay: cfg.BankSets,
			Base:         trace.Addr(uint64(i+1) << 40),
		})
		if err != nil {
			return nil, nil, err
		}
		timed[i] = &timedStream{gen: g, buf: make([]trace.Event, 0, streamBatch)}
		streams[i] = timed[i]
	}
	return timed, streams, nil
}

// allocTimer times every Allocate call of the policy it decorates.
type allocTimer struct {
	core.Policy
	calls []time.Duration
}

func (t *allocTimer) Allocate(curves []core.MissCurve) (*core.Allocation, error) {
	start := time.Now()
	a, err := t.Policy.Allocate(curves)
	t.calls = append(t.calls, time.Since(start))
	return a, err
}

// The decorated policy must offer the simulator exactly the optional
// interfaces the wrapped one offers, since the epoch controller changes
// behaviour on their presence; one type per combination keeps that exact.

type allocTimerDegraded struct{ *allocTimer }

func (t allocTimerDegraded) AllocateDegraded(curves []core.MissCurve, failed nuca.BankSet) (*core.Allocation, error) {
	start := time.Now()
	a, err := t.Policy.(core.DegradedPolicy).AllocateDegraded(curves, failed)
	t.calls = append(t.calls, time.Since(start))
	return a, err
}

type allocTimerFeedback struct{ *allocTimer }

func (t allocTimerFeedback) SetFeedback(w []float64) { t.Policy.(core.FeedbackPolicy).SetFeedback(w) }

type allocTimerBoth struct{ *allocTimer }

func (t allocTimerBoth) AllocateDegraded(curves []core.MissCurve, failed nuca.BankSet) (*core.Allocation, error) {
	return allocTimerDegraded(t).AllocateDegraded(curves, failed)
}

func (t allocTimerBoth) SetFeedback(w []float64) { t.Policy.(core.FeedbackPolicy).SetFeedback(w) }

// timePolicy decorates p; the returned timer collects the call durations.
func timePolicy(p core.Policy) (core.Policy, *allocTimer) {
	t := &allocTimer{Policy: p}
	_, degraded := p.(core.DegradedPolicy)
	_, feedback := p.(core.FeedbackPolicy)
	switch {
	case degraded && feedback:
		return allocTimerBoth{t}, t
	case degraded:
		return allocTimerDegraded{t}, t
	case feedback:
		return allocTimerFeedback{t}, t
	}
	return t, t
}

// layerPackages maps the module's packages to the layer names the
// per-layer metrics use. stats holds the generator's random draws, so it
// is charged to trace. The Go runtime (allocation, garbage collection,
// scheduling) gets a bucket of its own; everything else is "other".
var layerPackages = map[string]string{
	"bankaware/internal/trace":        "trace",
	"bankaware/internal/stats":        "trace",
	"bankaware/internal/cache":        "cache",
	"bankaware/internal/msa":          "msa",
	"bankaware/internal/coherence":    "coherence",
	"bankaware/internal/interconnect": "interconnect",
	"bankaware/internal/mem":          "mem",
	"bankaware/internal/sim":          "sim",
	"bankaware/internal/cpu":          "cpu",
	"bankaware/internal/core":         "core",
	"bankaware/internal/fastsim":      "fastsim",
	"runtime":                         "runtime",
}

// funcPackage returns the import path of a symbol name such as
// "bankaware/internal/cache.(*Bank).Access".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// layerShares lists a CPU profile of binary with `go tool pprof -top` and
// returns each layer's share of its self (flat) time. pprof lists inlined
// functions on their own, so a sample counts for its innermost frame.
func layerShares(binary, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-unit=ns", binary, profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return topShares(string(out))
}

// topShares buckets the rows of a `pprof -top -unit=ns` listing, such as
//
//	      flat  flat%   sum%        cum   cum%
//	220000000ns 44.00% 44.00% 280000000ns 56.00%  bankaware/internal/trace.(*Generator).Next
//
// by layer, as shares of the listed flat time.
func topShares(listing string) (map[string]float64, error) {
	shares := map[string]float64{}
	var total float64
	table := false
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		name, _, _ := strings.Cut(f[5], "[")
		layer, ok := layerPackages[funcPackage(name)]
		if !ok {
			layer = "other"
		}
		shares[layer] += flat
		total += flat
	}
	if !table {
		return nil, errors.New("pprof printed no table")
	}
	if total == 0 {
		return shares, nil
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}
