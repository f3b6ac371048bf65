package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// The metric lists the program prints must be exactly the lists
// BENCHMARK.json declares, in name and unit.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEndNames))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEndNames[i] {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %q, program %q", i, m.Name, endToEndNames[i])
		}
	}
	if len(spec.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(spec.PerLayer), len(perLayerNames))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerNames[i].name || m.Unit != perLayerNames[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s %s, program %s %s",
				i, m.Name, m.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
}

// A timed stream must hand the simulator exactly the generator's events.
func TestTimedStreamKeepsEventOrder(t *testing.T) {
	cfg := experiments.ScaleModel.Config()
	specs, err := setSpecs(0)
	if err != nil {
		t.Fatal(err)
	}
	timed, streams, err := timedStreams(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	for i, s := range specs {
		g := trace.MustGenerator(s, rng.Split(uint64(i)), trace.GeneratorConfig{
			BlocksPerWay: cfg.BankSets,
			Base:         trace.Addr(uint64(i+1) << 40),
		})
		for n := 0; n < 3*streamBatch; n++ {
			if got, want := streams[i].Next(), g.Next(); got != want {
				t.Fatalf("core %d event %d: stream %+v, generator %+v", i, n, got, want)
			}
		}
		if timed[i].events != 3*streamBatch {
			t.Errorf("core %d: %d events counted, want %d", i, timed[i].events, 3*streamBatch)
		}
	}
}

type plainPolicy struct{}

func (plainPolicy) Name() string { return "plain" }
func (plainPolicy) Allocate([]core.MissCurve) (*core.Allocation, error) {
	return core.EqualAllocation(), nil
}

// The Allocate timer offers the optional policy interfaces exactly when
// the wrapped policy does, and counts every call.
func TestTimePolicyForwardsOnlyWhatItWraps(t *testing.T) {
	for _, p := range []core.Policy{plainPolicy{}, core.EqualPolicy{}, core.NewBankAwarePolicy(), core.NewBandwidthAwarePolicy()} {
		wrapped, timer := timePolicy(p)
		_, wantDeg := p.(core.DegradedPolicy)
		_, gotDeg := wrapped.(core.DegradedPolicy)
		_, wantFb := p.(core.FeedbackPolicy)
		_, gotFb := wrapped.(core.FeedbackPolicy)
		if wantDeg != gotDeg || wantFb != gotFb {
			t.Errorf("%s: degraded %t feedback %t, wrapped degraded %t feedback %t",
				p.Name(), wantDeg, wantFb, gotDeg, gotFb)
		}
		if wrapped.Name() != p.Name() {
			t.Errorf("wrapped %s renamed to %s", p.Name(), wrapped.Name())
		}
		if _, err := wrapped.Allocate(make([]core.MissCurve, 8)); err != nil {
			t.Logf("%s: %v", p.Name(), err)
		}
		if len(timer.calls) != 1 {
			t.Errorf("%s: %d calls timed, want 1", p.Name(), len(timer.calls))
		}
	}
}

// layerShares lists a real CPU profile through `go tool pprof` and its
// shares add up to one.
func TestLayerSharesReadsCPUProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command:", err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	g := trace.MustGenerator(trace.Catalog()[0], stats.NewRNG(1, 2), trace.GeneratorConfig{})
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		g.Next()
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := layerShares(exe, path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("shares add up to %.3f, want 1: %v", total, shares)
	}
	if shares["trace"] == 0 {
		t.Errorf("a profile of trace generation charges nothing to trace: %v", shares)
	}
}

func TestTopSharesBucketsRows(t *testing.T) {
	listing := `Type: cpu
      flat  flat%   sum%        cum   cum%
600000000ns 60.00% 60.00% 600000000ns 60.00%  bankaware/internal/trace.(*Generator).Next
200000000ns 20.00% 80.00% 200000000ns 20.00%  bankaware/internal/stats.(*RNG).Uint64 (inline)
100000000ns 10.00% 90.00% 100000000ns 10.00%  runtime.mallocgc
100000000ns 10.00%   100% 100000000ns 10.00%  slices.Sort[go.shape.[]int,go.shape.int] (inline)
         0     0%   100% 1000000000ns   100%  main.main
`
	shares, err := topShares(listing)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"trace": 0.8, "runtime": 0.1, "other": 0.1}
	for k, v := range want {
		if math.Abs(shares[k]-v) > 1e-9 {
			t.Errorf("%s share %g, want %g (all: %v)", k, shares[k], v, shares)
		}
	}
	if _, err := topShares("no table here"); err == nil {
		t.Error("a listing without a table was accepted")
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"bankaware/internal/cache.(*Bank).Access":  "bankaware/internal/cache",
		"bankaware/internal/runner.Map[...].func1": "bankaware/internal/runner",
		"runtime.mallocgc":                         "runtime",
		"main.main":                                "main",
	} {
		if got := funcPackage(name); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", name, got, want)
		}
	}
}
