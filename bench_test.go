// Benchmarks that regenerate every table and figure of the paper's
// evaluation section. Each experiment bench runs the corresponding harness
// from internal/experiments and reports the figure's headline numbers as
// custom metrics, so `go test -bench . -benchmem` reproduces the whole
// evaluation; EXPERIMENTS.md records paper-vs-measured for each one.
//
// The detailed-simulation benches run on the 1/16-scale model machine
// (every capacity ratio of Table I preserved; see DESIGN.md). The final
// micro-benchmarks measure the simulator's own hot paths.
package bankaware_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"bankaware"
	"bankaware/internal/benchmarks"
	"bankaware/internal/cache"
	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/montecarlo"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// ---------------------------------------------------------------- Fig. 2

// BenchmarkFig2MSAHistogram regenerates the MSA stack-distance histogram
// example: an application with strong temporal reuse on an 8-way cache.
// Metrics: the MRU counter's share of hits (the figure's visual point).
func BenchmarkFig2MSAHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h, err := experiments.Fig2Histogram(200_000)
		if err != nil {
			b.Fatal(err)
		}
		var hits uint64
		for d := 0; d < 8; d++ {
			hits += h[d]
		}
		if hits == 0 {
			b.Fatal("no hits profiled")
		}
		b.ReportMetric(float64(h[0])/float64(hits), "mruShareOfHits")
		b.ReportMetric(float64(h[8])/float64(hits+h[8]), "missRatio")
	}
}

// ---------------------------------------------------------------- Fig. 3

// BenchmarkFig3MissRatioCurves regenerates the cumulative miss-ratio curves
// of sixtrack, bzip2 and applu. Metrics pin the paper's described shapes:
// sixtrack near zero after its knee, applu's flat residual, bzip2's
// improvement out to ~45 ways.
func BenchmarkFig3MissRatioCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := experiments.Fig3Curves(experiments.Fig3Exemplars, 300_000, experiments.ScaleModel)
		if err != nil {
			b.Fatal(err)
		}
		byName := map[string][]float64{}
		for _, c := range curves {
			byName[c.Workload] = c.Ratio
		}
		b.ReportMetric(byName["sixtrack"][10], "sixtrackMissAt10w")
		b.ReportMetric(byName["applu"][64], "appluResidual")
		b.ReportMetric(byName["bzip2"][8]-byName["bzip2"][44], "bzip2GainTo45w")
	}
}

// --------------------------------------------------------------- Table II

// BenchmarkTableIIProfilerOverhead evaluates the profiler hardware-overhead
// model. Metrics: per-structure kbits (paper: 54 / 27 / 2.25) and the
// chip-wide percentage of the 16 MB LLC (paper: ~0.4%).
func BenchmarkTableIIProfilerOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, pct := experiments.TableII()
		b.ReportMetric(rows[0].Kbits, "partialTagKbits")
		b.ReportMetric(rows[1].Kbits, "lruStackKbits")
		b.ReportMetric(rows[2].Kbits, "hitCounterKbits")
		b.ReportMetric(pct, "pctOfLLC")
	}
}

// ---------------------------------------------------------------- Fig. 4

// BenchmarkFig4AggregationMigration regenerates the bank-aggregation
// comparison: Cascade's prohibitive migration rate against AddressHash /
// Parallel / the adopted two-level structure.
func BenchmarkFig4AggregationMigration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AggregationComparison(150_000)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Scheme {
			case nuca.Cascade:
				b.ReportMetric(r.MigrationRate, "cascadeMigPerAcc")
			case nuca.TwoLevel:
				b.ReportMetric(r.MigrationRate, "twoLevelMigPerAcc")
			case nuca.Parallel:
				b.ReportMetric(r.LookupsPerAccess, "parallelLookups")
			case nuca.AddressHash:
				b.ReportMetric(r.MissRatio, "hashMissRatio")
			}
		}
	}
}

// ------------------------------------------------------- Fig. 5 / Table III

// BenchmarkTableIIIAssignments runs the bank-aware allocator over all eight
// sets' projected curves and reports structural facts of the resulting
// assignments (Fig. 5 is one such allocation rendered).
func BenchmarkTableIIIAssignments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIIIAssignments()
		if err != nil {
			b.Fatal(err)
		}
		maxWays, minWays := 0, 1<<30
		for _, r := range rows {
			for _, w := range r.Ways {
				if w > maxWays {
					maxWays = w
				}
				if w < minWays {
					minWays = w
				}
			}
		}
		b.ReportMetric(float64(maxWays), "maxCoreWays")
		b.ReportMetric(float64(minWays), "minCoreWays")
	}
}

// ---------------------------------------------------------------- Fig. 7

// BenchmarkFig7MonteCarlo regenerates the comparative Monte Carlo. Metrics:
// mean relative miss ratio vs the even split for the Unrestricted and
// Bank-aware allocators (paper: 0.70 and 0.73, i.e. 30% / 27% reductions).
func BenchmarkFig7MonteCarlo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := montecarlo.DefaultConfig()
		cfg.Trials = 1000
		res, err := montecarlo.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanUnrestrictedRatio, "unrestrictedVsEqual")
		b.ReportMetric(res.MeanBankAwareRatio, "bankAwareVsEqual")
	}
}

// BenchmarkEngineMonteCarlo measures the Fig. 7 campaign under explicit
// worker bounds of the parallel engine. Results are bit-identical across
// bounds (the determinism tests pin this); only wall time changes, scaling
// near-linearly with cores on multicore hosts.
func BenchmarkEngineMonteCarlo(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := montecarlo.DefaultConfig()
				cfg.Trials = 1000
				res, err := montecarlo.RunContext(context.Background(), cfg,
					montecarlo.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.MeanBankAwareRatio, "bankAwareVsEqual")
			}
		})
	}
}

// BenchmarkEngineFig8Campaign measures the detailed-simulation campaign (8
// sets x 3 policies flattened to 24 jobs) under explicit worker bounds.
func BenchmarkEngineFig8Campaign(b *testing.B) {
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunFig8Fig9Context(context.Background(),
					experiments.ScaleModel, 400_000, experiments.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.GMRelMissBank, "gmRelMissBank")
			}
		})
	}
}

// ----------------------------------------------------------- Figs. 8 and 9

// fig89Result caches the expensive detailed-simulation sweep so the Fig. 8
// and Fig. 9 benches (which present different metrics of the same
// experiment, exactly like the paper's two figures) run it once.
var (
	fig89Once sync.Once
	fig89Res  *experiments.Fig8Fig9Result
	fig89Err  error
)

func fig89(b *testing.B) *experiments.Fig8Fig9Result {
	b.Helper()
	fig89Once.Do(func() {
		// The canonical EXPERIMENTS.md budget: 3M instructions/core gives
		// the dynamic policy enough epochs to converge on every set.
		fig89Res, fig89Err = experiments.RunFig8Fig9(experiments.ScaleModel, 3_000_000)
	})
	if fig89Err != nil {
		b.Fatal(fig89Err)
	}
	return fig89Res
}

// BenchmarkFig8RelativeMissRate regenerates the detailed-simulation miss
// results over the eight Table III sets: the GM relative miss rate of
// Equal-partitions and Bank-aware vs No-partitions (paper: ~0.4 and ~0.30,
// with Bank-aware 25% below Equal).
func BenchmarkFig8RelativeMissRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := fig89(b)
		b.ReportMetric(r.GMRelMissEqual, "equalVsNone")
		b.ReportMetric(r.GMRelMissBank, "bankAwareVsNone")
		b.ReportMetric(r.GMRelMissBank/r.GMRelMissEqual, "bankAwareVsEqual")
	}
}

// BenchmarkFig9RelativeCPI regenerates the CPI companion figure (paper:
// Bank-aware 43% below No-partitions and 11% below Equal).
func BenchmarkFig9RelativeCPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := fig89(b)
		b.ReportMetric(r.GMRelCPIEqual, "equalVsNone")
		b.ReportMetric(r.GMRelCPIBank, "bankAwareVsNone")
		b.ReportMetric(r.GMRelCPIBank/r.GMRelCPIEqual, "bankAwareVsEqual")
	}
}

// ---------------------------------------------------------------- Ablations

// BenchmarkAblationProfilerAccuracy measures the hardware profiler's
// worst-case curve error against the exact profiler at the paper's 12-bit /
// 1-in-32 design point (paper: within 5%).
func BenchmarkAblationProfilerAccuracy(b *testing.B) {
	spec := trace.MustSpec("bzip2")
	const sets = 256
	run := func(cfg msa.Config) []float64 {
		p := msa.MustProfiler(cfg)
		g := trace.MustGenerator(spec, stats.NewRNG(9, 9), trace.GeneratorConfig{BlocksPerWay: sets})
		for i := 0; i < 300_000; i++ {
			p.Access(g.Next().Access.Addr)
		}
		return p.MissRatioCurve()
	}
	for i := 0; i < b.N; i++ {
		exact := run(msa.Config{Sets: sets, MaxWays: 72})
		hw := run(msa.Config{Sets: sets, MaxWays: 72, SampleLog2: 5, PartialTagBits: 12})
		maxErr := 0.0
		for w := range hw {
			if e := hw[w] - exact[w]; e > maxErr {
				maxErr = e
			} else if -e > maxErr {
				maxErr = -e
			}
		}
		b.ReportMetric(maxErr, "maxCurveError")
	}
}

// BenchmarkAblationEpochLength sweeps the repartitioning period on set 6
// and reports the bank-aware relative misses at a short and a long epoch —
// the adaptivity/stability trade the 100M-cycle choice balances.
func BenchmarkAblationEpochLength(b *testing.B) {
	set := experiments.TableIIISets[5]
	for i := 0; i < b.N; i++ {
		for _, e := range []struct {
			cycles int64
			name   string
		}{{300_000, "shortEpochRelMiss"}, {1_500_000, "paperEpochRelMiss"}} {
			cfg := experiments.ScaleModel.Config()
			cfg.EpochCycles = e.cycles
			r, err := experiments.RunSet(cfg, 6, set[:], 1_200_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.RelMissBank, e.name)
		}
	}
}

// BenchmarkAblationCapacityCap sweeps the 9/16 maximum-assignable-capacity
// restriction in the Monte Carlo projection.
func BenchmarkAblationCapacityCap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []struct {
			cap  int
			name string
		}{{32, "bankAwareRatioCap32"}, {72, "bankAwareRatioCap72"}, {128, "bankAwareRatioCap128"}} {
			cfg := montecarlo.DefaultConfig()
			cfg.Trials = 300
			cfg.BankAware.MaxCoreWays = c.cap
			cfg.Unrestricted.MaxCoreWays = c.cap
			res, err := montecarlo.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.MeanBankAwareRatio, c.name)
		}
	}
}

// BenchmarkAblationPLRU compares the paper's true-LRU assumption against
// tree pseudo-LRU banks on one Table III set (bank-aware policy): the
// relative-miss metric shows how much of the benefit survives the
// realistic-hardware replacement policy.
func BenchmarkAblationPLRU(b *testing.B) {
	set := experiments.TableIIISets[4]
	for i := 0; i < b.N; i++ {
		for _, variant := range []struct {
			rep  cache.ReplacementPolicy
			name string
		}{{cache.LRU, "lruRelMiss"}, {cache.TreePLRU, "plruRelMiss"}} {
			cfg := experiments.ScaleModel.Config()
			cfg.L2Replacement = variant.rep
			r, err := experiments.RunSet(cfg, 5, set[:], 1_200_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.RelMissBank, variant.name)
		}
	}
}

// BenchmarkAblationStrictLookup compares lazy way-ownership enforcement
// (hits anywhere, the UCP/CQoS behaviour) against strict own-ways-only
// lookup — the repartitioning cost the paper's wording leaves ambiguous.
func BenchmarkAblationStrictLookup(b *testing.B) {
	set := experiments.TableIIISets[0]
	for i := 0; i < b.N; i++ {
		for _, variant := range []struct {
			strict bool
			name   string
		}{{false, "lazyRelMiss"}, {true, "strictRelMiss"}} {
			cfg := experiments.ScaleModel.Config()
			cfg.L2StrictLookup = variant.strict
			r, err := experiments.RunSet(cfg, 1, set[:], 1_200_000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(r.RelMissBank, variant.name)
		}
	}
}

// BenchmarkExtensionBandwidthAware measures the bandwidth-aware feedback
// extension against plain bank-aware on a memory-intense mix (CPI, lower
// is better).
func BenchmarkExtensionBandwidthAware(b *testing.B) {
	mix := []string{"art", "mcf", "swim", "gzip", "mesa", "equake", "crafty", "applu"}
	specs := make([]trace.Spec, len(mix))
	for i, n := range mix {
		specs[i] = trace.MustSpec(n)
	}
	run := func(p core.Policy) float64 {
		cfg := experiments.ScaleModel.Config()
		sys, err := sim.New(cfg, p, specs)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(600_000); err != nil {
			b.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(1_200_000); err != nil {
			b.Fatal(err)
		}
		return sys.Result(mix).MeanCPI
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(core.NewBankAwarePolicy()), "bankAwareCPI")
		b.ReportMetric(run(core.NewBandwidthAwarePolicy()), "bandwidthAwareCPI")
	}
}

// ------------------------------------------------------------ micro-benches
//
// The hot-path micro-benchmarks live in internal/benchmarks so the same
// bodies back both `go test -bench` and the cmd/bench perf harness that
// emits BENCH_<pr>.json for the CI regression gate. All of them report
// allocations: the steady-state inner loop is required to stay at
// 0 allocs/op.

// BenchmarkBankAccess measures the way-partitioned cache bank's hot path.
func BenchmarkBankAccess(b *testing.B) { benchmarks.BankAccess(b) }

// BenchmarkProfilerAccess measures the hardware MSA profiler's hot path
// (every access lands in a sampled set — the real stack-distance work).
func BenchmarkProfilerAccess(b *testing.B) { benchmarks.ProfilerAccess(b) }

// BenchmarkProfilerAccessUnsampled measures the 31-in-32 set-skip path.
func BenchmarkProfilerAccessUnsampled(b *testing.B) { benchmarks.ProfilerAccessUnsampled(b) }

// BenchmarkDirectoryAccess measures the MOESI directory's miss/evict churn.
func BenchmarkDirectoryAccess(b *testing.B) { benchmarks.DirectoryAccess(b) }

// BenchmarkSystemStep measures the full simulator inner loop in fixed
// 100k-instruction chunks and reports simulated cycles/instructions per
// second.
func BenchmarkSystemStep(b *testing.B) { benchmarks.SystemStep(b) }

// BenchmarkSystemStepPipelined runs the same loop under the pipelined
// intra-simulation executor; results are byte-identical, only throughput
// (and a small per-Run goroutine allocation) differs.
func BenchmarkSystemStepPipelined(b *testing.B) { benchmarks.SystemStepPipelined(b) }

// BenchmarkMSHRFill measures the MSHR allocate/merge/complete/release cycle.
func BenchmarkMSHRFill(b *testing.B) { benchmarks.MSHRFill(b) }

// BenchmarkServiceSubmitThroughput measures the bankawared daemon's durable
// job-intake path under concurrent load: HTTP submit, strict decode, spec-hash
// dedup lookup, group-committed (one fsync per batch) record, queue push.
func BenchmarkServiceSubmitThroughput(b *testing.B) { benchmarks.ServiceSubmitThroughput(b) }

// BenchmarkServiceCachedSubmit measures the content-addressed fast path: a
// duplicate submission answered from the result cache with no fsync or run.
func BenchmarkServiceCachedSubmit(b *testing.B) { benchmarks.ServiceCachedSubmit(b) }

// BenchmarkGeneratorNext measures the stack-distance workload generator.
func BenchmarkGeneratorNext(b *testing.B) { benchmarks.GeneratorNext(b) }

// BenchmarkFastSet1Run measures one warm-profile fast-engine run of Table
// III set 1 at 10 M instructions per core.
func BenchmarkFastSet1Run(b *testing.B) { benchmarks.FastSet1Run(b) }

// BenchmarkBankAwareAllocator measures one full Fig. 6 allocation.
func BenchmarkBankAwareAllocator(b *testing.B) {
	cat := trace.Catalog()
	curves := make([]core.MissCurve, nuca.NumCores)
	for i := range curves {
		ratios := cat[i%len(cat)].MissCurve(trace.MaxWays)
		c := make(core.MissCurve, len(ratios))
		for w, r := range ratios {
			c[w] = r * 1e6
		}
		curves[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BankAware(curves, core.DefaultBankAware()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorThroughput measures full-system simulation speed in
// instructions per benchmark op (fixed 100k-instruction chunks).
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := experiments.ScaleModel.Config()
	specs := make([]trace.Spec, nuca.NumCores)
	set := experiments.TableIIISets[0]
	for i := range specs {
		specs[i] = trace.MustSpec(set[i])
	}
	sys, err := sim.New(cfg, core.NewBankAwarePolicy(), specs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(uint64(i+1) * 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = bankaware.Catalog // the facade is part of the benchmarked surface
