// Package benchmarks holds the simulator's hot-path micro- and end-to-end
// benchmarks as plain functions over *testing.B, so the same bodies back
// both `go test -bench` (bench_test.go at the repository root) and the
// machine-readable perf harness (cmd/bench), which runs them through
// testing.Benchmark and emits BENCH_<pr>.json for the benchstat CI gate.
//
// Every benchmark here reports allocations: the inner simulation loop is
// required to be allocation-free in steady state (see DESIGN.md,
// "Performance model"), and the CI gate fails on any allocs/op regression.
package benchmarks

import (
	"testing"

	"bankaware/internal/cache"
	"bankaware/internal/coherence"
	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/msa"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// BankAccess measures the way-partitioned cache bank's hot path: a random
// block stream over a 2048-set, 8-way bank with all cores taking turns, the
// same mix of hits, misses and evictions the L2 banks see in a full run.
func BankAccess(b *testing.B) {
	bank := cache.MustBank(cache.Config{Sets: 2048, Ways: 8})
	rng := stats.NewRNG(1, 2)
	addrs := make([]trace.Addr, 1<<14)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.IntN(1<<18)) << trace.BlockBits
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Access(addrs[i&(1<<14-1)], i&7, false)
	}
}

// ProfilerAccess measures the hardware MSA profiler's hot path. Every
// address lands in a sampled set (the 1-in-32 skip path is measured
// separately by ProfilerAccessUnsampled), so this is the cost of the real
// stack-distance work: tag lookup, depth count, move-to-front.
func ProfilerAccess(b *testing.B) {
	p := msa.MustProfiler(msa.BaselineHardware())
	rng := stats.NewRNG(3, 4)
	addrs := make([]trace.Addr, 1<<14)
	for i := range addrs {
		// Shifting the block number past the sample bits zeroes the set's
		// low SampleLog2 bits: every access hits a sampled set.
		addrs[i] = trace.Addr(rng.IntN(1<<20)) << (trace.BlockBits + 5)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&(1<<14-1)])
	}
}

// ProfilerAccessUnsampled measures the profiler's 31-in-32 skip path: the
// access lands in an unsampled set and must cost only the set decode.
func ProfilerAccessUnsampled(b *testing.B) {
	p := msa.MustProfiler(msa.BaselineHardware())
	rng := stats.NewRNG(5, 6)
	addrs := make([]trace.Addr, 1<<14)
	for i := range addrs {
		blk := uint64(rng.IntN(1<<20))<<5 | uint64(rng.IntN(31)+1) // low set bits non-zero
		addrs[i] = trace.Addr(blk << trace.BlockBits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(addrs[i&(1<<14-1)])
	}
}

// DirectoryAccess measures the MOESI directory's hot path: read and write
// misses interleaved with L1 evictions over a large block population, the
// allocate/lookup/delete churn the directory sees on every L2-level event.
func DirectoryAccess(b *testing.B) {
	d := coherence.NewDirectory()
	rng := stats.NewRNG(7, 8)
	addrs := make([]trace.Addr, 1<<16)
	for i := range addrs {
		addrs[i] = trace.Addr(rng.IntN(1<<24)) << trace.BlockBits
	}
	const mask = 1<<16 - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&mask]
		c := i & 7
		if i&3 == 3 {
			d.OnWriteMiss(c, a)
		} else {
			d.OnReadMiss(c, a)
		}
		// Retire an older block by the same core: exercises lookup+delete.
		d.OnL1Evict(c, addrs[(i-8)&mask])
	}
}

// SystemStep measures the full-system simulator's end-to-end inner loop
// (sim.System.step and everything below it) in fixed 100k-instruction
// chunks on the Table III set-1 mix, and reports simulated cycles and
// instructions per wall-clock second — the throughput numbers EXPERIMENTS.md
// tracks. It forces the sequential loop (sim.System.SetSimWorkers(1)).
func SystemStep(b *testing.B) { systemStep(b, 1) }

// SystemStepPipelined runs the same end-to-end loop under the pipelined
// executor: a prefetch and an apply goroutine per simulated core around
// the commit thread. Results are byte-identical to SystemStep by
// construction; only the throughput — and a small per-Run allocation for
// the goroutines, the buffer pool being built once — differs. Speedups
// require real CPUs: at GOMAXPROCS=1 the goroutines time-slice and this
// reports the pipeline's overhead instead.
func SystemStepPipelined(b *testing.B) { systemStep(b, 2) }

// set1Specs returns the workload specs of Table III set 1, the golden mix.
func set1Specs() []trace.Spec {
	set := experiments.TableIIISets[0]
	specs := make([]trace.Spec, len(set))
	for i, name := range set {
		specs[i] = trace.MustSpec(name)
	}
	return specs
}

func systemStep(b *testing.B, simWorkers int) {
	cfg := experiments.ScaleModel.Config()
	set := experiments.TableIIISets[0]
	sys, err := sim.New(cfg, core.NewBankAwarePolicy(), set1Specs())
	if err != nil {
		b.Fatal(err)
	}
	sys.SetSimWorkers(simWorkers)
	const chunk = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(uint64(i+1) * chunk); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	res := sys.Result(set[:])
	var instr uint64
	var cycles int64
	for _, cr := range res.Cores {
		instr += cr.Instructions
		if cr.Cycles > cycles {
			cycles = cr.Cycles
		}
	}
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(cycles)/sec, "simCycles/sec")
		b.ReportMetric(float64(instr)/sec, "simInstr/sec")
	}
}

// GeneratorNext measures the stack-distance workload generator, the
// largest layer of a detailed run: one event per op on bzip2, whose deep
// reuse distances keep the LRU stack's rank lookups long.
func GeneratorNext(b *testing.B) {
	g := trace.MustGenerator(trace.MustSpec("bzip2"), stats.NewRNG(5, 6), trace.GeneratorConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// MSHRFill measures the miss-status holding registers' allocate/complete/
// release cycle: a primary miss, a merged secondary, completion and waiter
// recycling — the steady-state fill traffic of one core.
func MSHRFill(b *testing.B) {
	m := cache.NewMSHR(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := trace.Addr(i&15) << trace.BlockBits
		m.Allocate(a, uint64(i))
		m.Allocate(a, uint64(i)+1) // merged secondary
		ws := m.Complete(a)
		if len(ws) != 2 {
			b.Fatal("merge lost a waiter")
		}
		m.Release(ws)
	}
}
