// Command sweep runs the design-space studies: the Fig. 4 bank-aggregation
// comparison and the ablations DESIGN.md calls out (profiler sampling and
// tag width vs accuracy, epoch length, capacity cap).
//
//	sweep -aggregation
//	sweep -ablation profiler
//	sweep -ablation epoch -parallel 4 -progress
//	sweep -ablation cap -timeout 2m
//	sweep -ablation epoch -report epoch.json -pprof localhost:6060
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	"bankaware/internal/cache"
	"bankaware/internal/experiments"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/msa"
	"bankaware/internal/runner"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

func main() {
	var (
		aggregation = flag.Bool("aggregation", false, "compare the Fig. 4 bank-aggregation schemes")
		ablation    = flag.String("ablation", "", "run an ablation: profiler|epoch|cap|plru|strict")
		accesses    = flag.Int("accesses", 200_000, "accesses for aggregation/profiler studies")
		parallel    = flag.Int("parallel", 0, "worker bound (0 = all cores); results do not depend on it")
		timeout     = flag.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
		progress    = flag.Bool("progress", false, "render a live progress line on stderr")
		report      = flag.String("report", "", "write the machine-readable JSON sweep report to this file")
		pprofAddr   = flag.String("pprof", "", "serve /debug/pprof, /debug/vars and /debug/metrics on this address while running")
		faultPath   = flag.String("faults", "", "inject this JSON fault plan into the simulation-backed sweeps")
		fidelStr    = flag.String("fidelity", "", "execution engine for simulation-backed sweeps: detailed (default) or fast (interval model; rejected by ablations whose semantics it cannot reproduce)")
	)
	flag.Parse()
	if !*aggregation && *ablation == "" {
		*aggregation = true
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	fidelity, err := experiments.ParseFidelity(*fidelStr)
	if err != nil {
		fatal(err)
	}
	opt := experiments.Options{Workers: *parallel, Fidelity: fidelity}
	if *faultPath != "" {
		plan, err := faults.Load(*faultPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, plan)
		opt.Faults = plan
	}
	if *progress {
		opt.Progress = runner.Printer(os.Stderr, "jobs")
	}
	if *pprofAddr != "" {
		reg := metrics.NewRegistry()
		opt.Progress = runner.CountInto(reg, opt.Progress)
		srv, err := metrics.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof\n", srv.Addr())
	}

	var rep *metrics.Report
	if *report != "" {
		rep = metrics.NewReport("sweep")
		rep.Label = "aggregation"
		if *ablation != "" {
			rep.Label = "ablation-" + *ablation
		}
	}

	if *aggregation {
		rows, err := experiments.AggregationComparison(*accesses)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Bank aggregation schemes (Fig. 4):")
		fmt.Print(experiments.FormatAggregation(rows))
		for _, r := range rows {
			rep.AddSummary(fmt.Sprintf("agg.%s.miss_ratio", r.Scheme), r.MissRatio)
			rep.AddSummary(fmt.Sprintf("agg.%s.migration_rate", r.Scheme), r.MigrationRate)
			rep.AddSummary(fmt.Sprintf("agg.%s.lookups_per_access", r.Scheme), r.LookupsPerAccess)
		}
	}

	switch *ablation {
	case "":
	case "profiler":
		profilerAblation(*accesses, rep)
	case "epoch":
		epochAblation(ctx, opt, rep)
	case "cap":
		capAblation(ctx, opt, rep)
	case "plru":
		plruAblation(ctx, opt, rep)
	case "strict":
		strictAblation(ctx, opt, rep)
	default:
		fatal(fmt.Errorf("unknown ablation %q (want profiler|epoch|cap|plru|strict)", *ablation))
	}

	if rep != nil {
		if err := rep.WriteFile(*report); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote sweep report to %s\n", *report)
	}
}

// plruAblation compares true LRU banks against tree pseudo-LRU.
func plruAblation(ctx context.Context, opt experiments.Options, rep *metrics.Report) {
	fmt.Println("\nReplacement-policy ablation (set 5, bank-aware, rel misses vs No-partitions):")
	fmt.Printf("%-10s %-12s\n", "policy", "relMisses")
	for _, v := range []struct {
		rep  cache.ReplacementPolicy
		name string
	}{{cache.LRU, "LRU"}, {cache.TreePLRU, "TreePLRU"}} {
		cfg := experiments.ScaleModel.Config()
		cfg.L2Replacement = v.rep
		r, err := experiments.RunSetContext(ctx, cfg, 5, experiments.TableIIISets[4][:], 1_500_000, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s %-12.3f\n", v.name, r.RelMissBank)
		rep.AddSummary(fmt.Sprintf("plru.%s.rel_miss_bank", v.name), r.RelMissBank)
	}
}

// strictAblation compares lazy vs strict way-ownership enforcement.
func strictAblation(ctx context.Context, opt experiments.Options, rep *metrics.Report) {
	fmt.Println("\nEnforcement ablation (set 1, bank-aware, rel misses vs No-partitions):")
	fmt.Printf("%-10s %-12s\n", "lookup", "relMisses")
	for _, v := range []struct {
		strict bool
		name   string
	}{{false, "lazy"}, {true, "strict"}} {
		cfg := experiments.ScaleModel.Config()
		cfg.L2StrictLookup = v.strict
		r, err := experiments.RunSetContext(ctx, cfg, 1, experiments.TableIIISets[0][:], 1_500_000, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10s %-12.3f\n", v.name, r.RelMissBank)
		rep.AddSummary(fmt.Sprintf("strict.%s.rel_miss_bank", v.name), r.RelMissBank)
	}
}

// profilerAblation sweeps set sampling and partial tag width against the
// exact full-tag profile, reporting the worst-case miss-ratio-curve error —
// the paper's "within 5% with 12-bit tags and 1-in-32 sampling" claim.
func profilerAblation(accesses int, rep *metrics.Report) {
	fmt.Println("\nProfiler accuracy vs hardware budget (worst curve error vs exact):")
	fmt.Printf("%-12s %-10s %-12s %-12s\n", "sampling", "tag bits", "max error", "kbits/profiler")
	spec := trace.MustSpec("bzip2")
	const sets = 256
	exact := profileCurve(spec, msa.Config{Sets: sets, MaxWays: 72}, accesses)
	for _, sampleLog2 := range []int{0, 3, 5, 6} {
		for _, tagBits := range []int{8, 12, 16, 0} {
			cfg := msa.Config{Sets: sets, MaxWays: 72, SampleLog2: sampleLog2, PartialTagBits: tagBits}
			got := profileCurve(spec, cfg, accesses)
			maxErr := 0.0
			for w := range got {
				if e := math.Abs(got[w] - exact[w]); e > maxErr {
					maxErr = e
				}
			}
			oc := msa.BaselineOverhead()
			oc.SampledSets = sets >> sampleLog2
			if tagBits == 0 {
				oc.TagBits = 34 // full tag for the baseline address space
			} else {
				oc.TagBits = tagBits
			}
			fmt.Printf("1-in-%-7d %-10d %-12.4f %-12.1f\n",
				1<<sampleLog2, tagBits, maxErr, msa.Kbits(msa.ComputeOverhead(oc).TotalBits()))
			rep.AddSummary(fmt.Sprintf("profiler.s%d.t%d.max_error", 1<<sampleLog2, tagBits), maxErr)
		}
	}
}

func profileCurve(spec trace.Spec, cfg msa.Config, accesses int) []float64 {
	p := msa.MustProfiler(cfg)
	g := trace.MustGenerator(spec, stats.NewRNG(9, 9), trace.GeneratorConfig{BlocksPerWay: cfg.Sets})
	for i := 0; i < accesses; i++ {
		p.Access(g.Next().Access.Addr)
	}
	return p.MissRatioCurve()
}

// epochAblation sweeps the repartitioning period on one Table III set.
func epochAblation(ctx context.Context, opt experiments.Options, rep *metrics.Report) {
	fmt.Println("\nEpoch-length sweep (set 6, bank-aware, relative misses vs No-partitions):")
	fmt.Printf("%-14s %-12s %-10s\n", "epoch cycles", "relMisses", "epochs")
	scale := experiments.ScaleModel
	set := experiments.TableIIISets[5]
	for _, epoch := range []int64{200_000, 750_000, 1_500_000, 6_000_000} {
		cfg := scale.Config()
		cfg.EpochCycles = epoch
		r, err := experiments.RunSetContext(ctx, cfg, 6, set[:], 2_000_000, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14d %-12.3f %-10d\n", epoch, r.RelMissBank, r.Bank.Epochs)
		rep.AddSummary(fmt.Sprintf("epoch.%d.rel_miss_bank", epoch), r.RelMissBank)
		rep.AddSummary(fmt.Sprintf("epoch.%d.epochs", epoch), float64(r.Bank.Epochs))
	}
}

// capAblation sweeps the maximum-assignable-capacity restriction in the
// Monte Carlo projection.
func capAblation(ctx context.Context, opt experiments.Options, rep *metrics.Report) {
	fmt.Println("\nCapacity-cap sweep (Monte Carlo mean relative miss ratio vs equal):")
	fmt.Printf("%-10s %-14s %-12s\n", "cap ways", "unrestricted", "bank-aware")
	for _, capWays := range []int{32, 48, 72, 128} {
		cfg := montecarlo.DefaultConfig()
		cfg.Trials = 300
		cfg.Seed = 7
		cfg.Unrestricted.MaxCoreWays = capWays
		cfg.BankAware.MaxCoreWays = capWays
		mopt := montecarlo.Options{Workers: opt.Workers, Progress: opt.Progress, Faults: opt.Faults}
		res, err := montecarlo.RunContext(ctx, cfg, mopt)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-10d %-14.3f %-12.3f\n", capWays,
			res.MeanUnrestrictedRatio, res.MeanBankAwareRatio)
		rep.AddSummary(fmt.Sprintf("cap.%d.mean_unrestricted_ratio", capWays), res.MeanUnrestrictedRatio)
		rep.AddSummary(fmt.Sprintf("cap.%d.mean_bankaware_ratio", capWays), res.MeanBankAwareRatio)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
