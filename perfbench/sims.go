package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"time"

	"bankaware/internal/core"
	"bankaware/internal/experiments"
	"bankaware/internal/fastsim"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
	"bankaware/internal/runner"
	"bankaware/internal/sim"
	"bankaware/internal/trace"

	_ "embed"
)

const (
	// set1Instructions is the per-core budget of every set1-detailed
	// simulation (half warm-up, half measured, as experiments runs them).
	set1Instructions = 2_000_000
	// goldenEpochCycles is the shortened epoch of the golden set-1 report,
	// so the Bank-aware policy repartitions many times within the budget.
	goldenEpochCycles = 200_000
	// gridInstructions is the per-core budget of every grid-fast unit.
	gridInstructions = 10_000_000
)

// digests holds the SHA-256 of each simulator workload's campaign result
// at the default seed, recorded on the commit that introduced the
// benchmark. A program change that alters simulated results fails the
// check at the default seed.
//
//go:embed digests.json
var digestsJSON []byte

func goldenDigest(workload string) (string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return "", err
	}
	return d[workload], nil
}

func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checkDigest checks one campaign result: every round of a run must
// reproduce the first round's digest, and at the default seed the digest
// must match the committed one.
func checkDigest(r *run, e *env, workload string, res any, first *string) {
	d, err := digestOf(res)
	if err != nil {
		r.fail(err)
		return
	}
	if *first == "" {
		*first = d
		fmt.Printf("digest %s %s\n", workload, d)
		if e.simSeed() == defaultSeed {
			want, err := goldenDigest(workload)
			if err != nil {
				r.fail(err)
				return
			}
			r.check(d == want, "%s: campaign digest %s differs from the committed %s", workload, d, want)
			return
		}
	}
	r.check(d == *first, "%s: campaign digest %s differs from the run's first %s", workload, d, *first)
}

func set1Config(e *env) sim.Config {
	cfg := experiments.ScaleModel.Config()
	cfg.EpochCycles = goldenEpochCycles
	cfg.Seed = e.simSeed()
	return cfg
}

// setPolicies are the three policies of every Table III evaluation, in
// the order experiments evaluates them.
func setPolicies() [3]core.Policy {
	return [3]core.Policy{core.NoPartitionPolicy{}, core.EqualPolicy{}, core.NewBankAwarePolicy()}
}

func runSet1(ctx context.Context, e *env, f experiments.Fidelity) (*experiments.SetResult, error) {
	return experiments.RunSetContext(ctx, set1Config(e), 1, experiments.TableIIISets[0][:], set1Instructions,
		experiments.Options{Workers: e.workers, Seed: e.simSeed(), Fidelity: f})
}

// simulatedMinstr is the instructions a campaign simulates, in millions:
// the per-core budget is a cumulative target covering warm-up and
// measured window.
func simulatedMinstr(runs int, perCore uint64) float64 {
	return float64(runs*nuca.NumCores) * float64(perCore) / 1e6
}

// set1Detailed: Table III set 1 under the three policies on the detailed
// engine.
var set1Detailed = workload{
	name: "set1-detailed",
	setup: func(e *env) (any, error) {
		specs, err := setSpecs(0)
		if err != nil {
			return nil, err
		}
		for _, p := range setPolicies() {
			if _, err := sim.New(set1Config(e), core.ClonePolicy(p), specs); err != nil {
				return nil, err
			}
		}
		return nil, nil
	},
	release: func(any) {},
	measure: func(e *env, _ any, r *run) {
		ctx := context.Background()
		var first string
		var det *experiments.SetResult
		rs, err := measureRounds(e.seconds, 3, func(int) error {
			res, err := runSet1(ctx, e, experiments.FidelityDetailed)
			if err != nil {
				return err
			}
			checkDigest(r, e, "set1-detailed", res, &first)
			det = res
			return nil
		})
		if err != nil {
			r.fail(err)
			return
		}
		rs.report(r)
		r.note("sim_minstr_per_s", simulatedMinstr(3, set1Instructions)/median(rs.wall), "Minstr/s")

		// The same campaign on the fast engine, untimed, for the accuracy
		// figures.
		fast, err := runSet1(ctx, e, experiments.FidelityFast)
		if !r.check(err == nil, "set1 fast re-run: %v", err) {
			return
		}
		cpiErr, mrErr := fastError(det, fast)
		r.note("fast_cpi_err_max", cpiErr, "%")
		r.note("fast_mr_err_max", mrErr, "absolute")
	},
	trace: traceSet1,
}

// fastError returns the largest per-core CPI error (percent) and L2
// miss-ratio error (absolute) of fast against detailed over the three
// policies.
func fastError(det, fast *experiments.SetResult) (cpiErr, mrErr float64) {
	pairs := [][2]sim.Result{{det.None, fast.None}, {det.Equal, fast.Equal}, {det.Bank, fast.Bank}}
	for _, p := range pairs {
		for c := 0; c < nuca.NumCores; c++ {
			d, f := p[0].Cores[c], p[1].Cores[c]
			if d.CPI > 0 {
				cpiErr = math.Max(cpiErr, math.Abs(f.CPI-d.CPI)/d.CPI*100)
			}
			mrErr = math.Max(mrErr, math.Abs(missRatio(f)-missRatio(d)))
		}
	}
	return cpiErr, mrErr
}

func missRatio(c sim.CoreResult) float64 {
	if c.L2Accesses == 0 {
		return 0
	}
	return float64(c.L2Misses) / float64(c.L2Accesses)
}

// tracedSim is one traced simulation's results and layer timings.
type tracedSim struct {
	result sim.Result
	wall   time.Duration
	gen    time.Duration
	events uint64
	alloc  []time.Duration
	dir    [2]uint64 // coherence misses, invalidations
	net    [2]uint64 // interconnect transfers, queue cycles
	dram   [2]uint64 // DRAM requests, queue cycles
	epochs int
}

// engineSystem is what a traced run drives, on either engine.
type engineSystem interface {
	RunContext(ctx context.Context, instructions uint64) error
	ResetStats()
	Result(workloads []string) sim.Result
	Epochs() int
}

// runTraced runs one simulation the way experiments runs a policy unit:
// warm-up to half the budget, stats reset, measure to the full budget.
func runTraced(ctx context.Context, sys engineSystem, workloads []string, instructions uint64) (sim.Result, time.Duration, error) {
	start := time.Now()
	if err := sys.RunContext(ctx, instructions/2); err != nil {
		return sim.Result{}, 0, err
	}
	sys.ResetStats()
	if err := sys.RunContext(ctx, instructions); err != nil {
		return sim.Result{}, 0, err
	}
	return sys.Result(workloads), time.Since(start), nil
}

// traceDetailed runs one detailed simulation with timed generators and a
// timed policy, rebuilt through sim.NewWithStreams.
func traceDetailed(ctx context.Context, cfg sim.Config, specs []trace.Spec, workloads []string, proto core.Policy, instructions uint64) (tracedSim, error) {
	var out tracedSim
	timed, streams, err := timedStreams(cfg, specs)
	if err != nil {
		return out, err
	}
	pol, timer := timePolicy(core.ClonePolicy(proto))
	sys, err := sim.NewWithStreams(cfg, pol, streams)
	if err != nil {
		return out, err
	}
	out.result, out.wall, err = runTraced(ctx, sys, workloads, instructions)
	if err != nil {
		return out, err
	}
	for _, t := range timed {
		out.gen += t.busy
		out.events += t.events
	}
	out.alloc = timer.calls
	ds, ns, ms := sys.DirectoryStats(), sys.NetworkStats(), sys.DRAMStats()
	out.dir = [2]uint64{ds.ReadMisses + ds.WriteMisses, ds.Invalidations}
	out.net = [2]uint64{ns.Transfers, ns.QueueCycles}
	out.dram = [2]uint64{ms.Requests, ms.QueueCycles}
	out.epochs = sys.Epochs()
	return out, nil
}

// tracePairs is how many untraced and traced campaigns a traced run
// alternates, after one untraced reference campaign, so the tracing
// overhead is a difference of medians rather than of two single runs.
const tracePairs = 3

type reporter interface{ Report() *metrics.Report }

// campaignTrace describes a simulator campaign to trace: the untraced
// campaign (its result and each unit's sim.Result in unit order) and one
// traced unit.
type campaignTrace struct {
	workload string
	untraced func() (reporter, []sim.Result, error)
	units    int
	unit     func(ctx context.Context, i int) (tracedSim, error)
}

// traceCampaign checks the untraced campaign, then alternates untraced and
// traced campaigns. Every traced unit must reproduce the untraced unit's
// result exactly. The first traced campaign runs under the CPU profiler
// and supplies the layer metrics, which it returns.
func traceCampaign(e *env, r *run, c campaignTrace) ([]tracedSim, bool) {
	ctx := context.Background()
	ref, want, err := c.untraced()
	if err != nil {
		r.fail(err)
		return nil, false
	}
	var first string
	checkDigest(r, e, c.workload, ref, &first)
	if ms, err := encodeMS(ref.Report()); r.check(err == nil, "encoding the campaign report: %v", err) {
		r.set("report.encode_ms", ms, "ms")
	}
	var untraced, traced []float64
	var units []tracedSim
	for i := 0; i < tracePairs; i++ {
		start := time.Now()
		res, _, err := c.untraced()
		untraced = append(untraced, time.Since(start).Seconds())
		if err != nil {
			r.fail(err)
			return nil, false
		}
		checkDigest(r, e, c.workload, res, &first)

		var got []tracedSim
		var ut *unitTimes
		var wall time.Duration
		campaign := func() error {
			var err error
			got, ut, wall, err = traceRuns(ctx, e, c.units, c.unit)
			return err
		}
		var shares map[string]float64
		if i == 0 {
			shares, err = profiled(e, campaign)
		} else {
			err = campaign()
		}
		if err != nil {
			r.fail(err)
			return nil, false
		}
		traced = append(traced, wall.Seconds())
		for u := range got {
			r.check(got[u].result == want[u], "%s unit %d: traced result differs from the untraced run", c.workload, u)
		}
		if i == 0 {
			units = got
			layerReport(r, e, got, ut, wall, shares)
		}
	}
	r.set("sim.trace_overhead", median(traced)-median(untraced), "s")
	r.note("untraced_campaign_s", median(untraced), "s")
	r.note("traced_campaign_s", median(traced), "s")
	return units, true
}

// profiled runs fn under the CPU profiler and returns each layer's share.
// The profile is written to the run's scratch directory.
func profiled(e *env, fn func() error) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(e.scratch, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return layerShares(exe, f.Name())
}

// unitTimes collects per-unit wall times from the runner's progress hook.
type unitTimes struct{ secs []float64 }

func (u *unitTimes) hook(p runner.Progress) {
	if p.Kind == runner.JobDone {
		u.secs = append(u.secs, p.Elapsed.Seconds())
	}
}

// traceRuns fans the traced units out on the runner with the campaign's
// worker count, recording per-unit wall times.
func traceRuns(ctx context.Context, e *env, n int, unit func(ctx context.Context, i int) (tracedSim, error)) ([]tracedSim, *unitTimes, time.Duration, error) {
	ut := &unitTimes{}
	start := time.Now()
	runs, err := runner.Map(ctx, runner.Config{Workers: e.workers, Progress: ut.hook}, n, unit)
	return runs, ut, time.Since(start), err
}

// layerReport sets every per-layer metric from the traced units, the CPU
// profile and the runner's unit times. Layers off the workload's path
// report zero.
func layerReport(r *run, e *env, units []tracedSim, ut *unitTimes, traced time.Duration, shares map[string]float64) {
	var busy, gen, allocSum time.Duration
	var events uint64
	var l1, l2, l2m, dirM, dirInv, netT, netQ, dramR, dramQ uint64
	var allocs []float64
	for _, u := range units {
		busy += u.wall
		gen += u.gen
		events += u.events
		for _, a := range u.alloc {
			allocSum += a
			allocs = append(allocs, float64(a.Nanoseconds())/1e3)
		}
		for _, c := range u.result.Cores {
			l1 += c.L1Accesses
			l2 += c.L2Accesses
			l2m += c.L2Misses
		}
		dirM += u.dir[0]
		dirInv += u.dir[1]
		netT += u.net[0]
		netQ += u.net[1]
		dramR += u.dram[0]
		dramQ += u.dram[1]
	}
	share := func(d time.Duration) float64 {
		if busy == 0 {
			return 0
		}
		return d.Seconds() / busy.Seconds()
	}
	r.set("trace.gen_share", share(gen), "ratio")
	nsPerEvent := 0.0
	if events > 0 {
		nsPerEvent = float64(gen.Nanoseconds()) / float64(events)
	}
	r.set("trace.ns_per_event", nsPerEvent, "ns")
	r.set("trace.events", float64(events), "count")
	r.set("cache.cpu_share", shares["cache"], "ratio")
	r.set("cache.l1_accesses", float64(l1), "count")
	r.set("cache.l2_accesses", float64(l2), "count")
	r.set("cache.l2_misses", float64(l2m), "count")
	r.set("msa.cpu_share", shares["msa"], "ratio")
	r.set("coherence.cpu_share", shares["coherence"], "ratio")
	r.set("coherence.misses", float64(dirM), "count")
	r.set("coherence.invalidations", float64(dirInv), "count")
	r.set("interconnect.cpu_share", shares["interconnect"], "ratio")
	r.set("interconnect.transfers", float64(netT), "count")
	r.set("interconnect.queue_cycles", float64(netQ), "cycles")
	r.set("mem.cpu_share", shares["mem"], "ratio")
	r.set("mem.requests", float64(dramR), "count")
	r.set("mem.queue_cycles", float64(dramQ), "cycles")
	r.set("sim.self_share", shares["sim"], "ratio")
	r.set("core.allocate_calls", float64(len(allocs)), "count")
	r.set("core.allocate_us_p50", median(allocs), "us")
	r.set("core.allocate_share", share(allocSum), "ratio")
	if len(ut.secs) > 0 {
		r.set("runner.unit_s_p50", median(ut.secs), "s")
		r.set("runner.unit_s_max", maxOf(ut.secs), "s")
		r.set("runner.utilisation", sum(ut.secs)/(float64(e.workers)*traced.Seconds()), "ratio")
	}
	for layer, s := range shares {
		r.note("pprof."+layer+"_share", s, "ratio")
	}
}

// zeroLayers sets every per-layer metric to zero, so a workload reports
// the full list with its bypassed layers at zero before filling in its own.
func zeroLayers(r *run) {
	for _, n := range perLayerNames {
		r.set(n.name, 0, n.unit)
	}
}

var perLayerNames = []struct{ name, unit string }{
	{"trace.gen_share", "ratio"}, {"trace.ns_per_event", "ns"}, {"trace.events", "count"},
	{"cache.cpu_share", "ratio"}, {"cache.l1_accesses", "count"}, {"cache.l2_accesses", "count"}, {"cache.l2_misses", "count"},
	{"msa.cpu_share", "ratio"},
	{"coherence.cpu_share", "ratio"}, {"coherence.misses", "count"}, {"coherence.invalidations", "count"},
	{"interconnect.cpu_share", "ratio"}, {"interconnect.transfers", "count"}, {"interconnect.queue_cycles", "cycles"},
	{"mem.cpu_share", "ratio"}, {"mem.requests", "count"}, {"mem.queue_cycles", "cycles"},
	{"sim.self_share", "ratio"}, {"sim.executor_speedup", "x"}, {"sim.trace_overhead", "s"},
	{"core.allocate_calls", "count"}, {"core.allocate_us_p50", "us"}, {"core.allocate_share", "ratio"},
	{"fastsim.profile_s", "s"}, {"fastsim.advance_share", "ratio"}, {"fastsim.epochs", "count"},
	{"runner.unit_s_p50", "s"}, {"runner.unit_s_max", "s"}, {"runner.utilisation", "ratio"}, {"report.encode_ms", "ms"},
	{"service.decode_us", "us"}, {"service.spechash_us", "us"}, {"service.queue_wait_ms", "ms"}, {"service.run_ms", "ms"},
	{"service.report_write_ms", "ms"}, {"service.fsyncs_per_job", "count"}, {"service.cache_hit_ratio", "ratio"},
	{"ledger.append_us", "us"},
}

// encodeMS times encoding a campaign report the way the CLIs and the
// service write it.
func encodeMS(rep *metrics.Report) (float64, error) {
	start := time.Now()
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return 0, err
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil
}

func traceSet1(e *env, _ any, r *run) {
	zeroLayers(r)
	ctx := context.Background()
	specs, err := setSpecs(0)
	if err != nil {
		r.fail(err)
		return
	}
	workloadNames := experiments.TableIIISets[0][:]
	cfg := set1Config(e)
	protos := setPolicies()
	traceCampaign(e, r, campaignTrace{
		workload: "set1-detailed",
		untraced: func() (reporter, []sim.Result, error) {
			res, err := runSet1(ctx, e, experiments.FidelityDetailed)
			if err != nil {
				return nil, nil, err
			}
			return res, []sim.Result{res.None, res.Equal, res.Bank}, nil
		},
		units: len(protos),
		unit: func(ctx context.Context, i int) (tracedSim, error) {
			return traceDetailed(ctx, cfg, specs, workloadNames, protos[i], set1Instructions)
		},
	})

	// Executor: one Bank-aware simulation sequential, then on every lane
	// the host allows, with identical results required.
	var walls [2]time.Duration
	var results [2]sim.Result
	for i, lanes := range []int{1, e.workers} {
		sys, err := sim.New(cfg, core.NewBankAwarePolicy(), specs)
		if err != nil {
			r.fail(err)
			return
		}
		sys.SetSimWorkers(lanes)
		if results[i], walls[i], err = runTraced(ctx, sys, workloadNames, set1Instructions); err != nil {
			r.fail(err)
			return
		}
	}
	r.check(results[0] == results[1], "set1 Bank-aware: result at %d sim workers differs from sequential", e.workers)
	r.set("sim.executor_speedup", walls[0].Seconds()/walls[1].Seconds(), "x")
	r.note("executor_lanes", float64(e.workers), "count")
}

// gridFast: the full Figs. 8/9 grid on the fast engine.
var gridFast = workload{
	name:    "grid-fast",
	setup:   gridSetup,
	release: func(any) {},
	measure: func(e *env, _ any, r *run) {
		ctx := context.Background()
		var first string
		rs, err := measureRounds(e.seconds, 3, func(int) error {
			res, err := runGrid(ctx, e)
			if err != nil {
				return err
			}
			checkDigest(r, e, "grid-fast", res, &first)
			return nil
		})
		if err != nil {
			r.fail(err)
			return
		}
		rs.report(r)
		r.note("fast_minstr_per_s", simulatedMinstr(experiments.CampaignUnits, gridInstructions)/median(rs.wall), "Minstr/s")
	},
	trace: traceGrid,
}

func runGrid(ctx context.Context, e *env) (*experiments.Fig8Fig9Result, error) {
	return experiments.RunFig8Fig9Context(ctx, experiments.ScaleModel, gridInstructions,
		experiments.Options{Workers: e.workers, Seed: e.simSeed(), Fidelity: experiments.FidelityFast})
}

func gridConfig(e *env) sim.Config {
	cfg := experiments.ScaleModel.Config()
	cfg.Seed = e.simSeed()
	return cfg
}

// setSpecs resolves the workloads of Table III set (0-based) in core order.
func setSpecs(set int) ([]trace.Spec, error) {
	specs := make([]trace.Spec, nuca.NumCores)
	for i, n := range experiments.TableIIISets[set] {
		s, err := trace.SpecByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// gridSetup builds one fast system per Table III set, which runs the cold
// profile pass of every workload in the grid. It returns the pass's time.
func gridSetup(e *env) (any, error) {
	start := time.Now()
	for set := range experiments.TableIIISets {
		specs, err := setSpecs(set)
		if err != nil {
			return nil, err
		}
		if _, err := fastsim.New(gridConfig(e), core.NoPartitionPolicy{}, specs); err != nil {
			return nil, err
		}
	}
	return time.Since(start), nil
}

func traceGrid(e *env, state any, r *run) {
	zeroLayers(r)
	r.set("fastsim.profile_s", state.(time.Duration).Seconds(), "s")
	ctx := context.Background()
	protos := setPolicies()
	cfg := gridConfig(e)
	units, ok := traceCampaign(e, r, campaignTrace{
		workload: "grid-fast",
		untraced: func() (reporter, []sim.Result, error) {
			res, err := runGrid(ctx, e)
			if err != nil {
				return nil, nil, err
			}
			var want []sim.Result
			for _, s := range res.Sets {
				want = append(want, s.None, s.Equal, s.Bank)
			}
			return res, want, nil
		},
		units: experiments.CampaignUnits,
		unit: func(ctx context.Context, u int) (tracedSim, error) {
			set, pol := u/experiments.SetPolicies, u%experiments.SetPolicies
			specs, err := setSpecs(set)
			if err != nil {
				return tracedSim{}, err
			}
			p, timer := timePolicy(core.ClonePolicy(protos[pol]))
			sys, err := fastsim.New(cfg, p, specs)
			if err != nil {
				return tracedSim{}, err
			}
			var out tracedSim
			out.result, out.wall, err = runTraced(ctx, sys, experiments.TableIIISets[set][:], gridInstructions)
			out.alloc = timer.calls
			out.epochs = sys.Epochs()
			return out, err
		},
	})
	if !ok {
		return
	}
	var busy, alloc time.Duration
	epochs := 0
	for _, u := range units {
		epochs += u.epochs
		busy += u.wall
		for _, a := range u.alloc {
			alloc += a
		}
	}
	r.set("fastsim.epochs", float64(epochs), "count")
	r.set("fastsim.advance_share", (busy-alloc).Seconds()/busy.Seconds(), "ratio")
}
