package service

import (
	"context"
	"encoding/json"
	"fmt"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// This file maps job kinds onto campaign units — the indivisible pieces a
// distributed job shards into — and implements both sides of the shard
// contract: executeShardUnits (what a worker computes for units [from, to))
// and mergeUnits (how a coordinator folds every unit back into the report).
// The invariant both sides rely on: unit u of spec S is a pure function of
// (S, u), with identical defaulting to the single-node paths in run.go, so
// any worker computes the same bytes and the merge reproduces the
// single-node report exactly.

// effectiveMonteCarloConfig resolves a Monte Carlo spec exactly as
// runMonteCarlo does: defaults, then Trials and Seed overrides.
func effectiveMonteCarloConfig(spec JobSpec) montecarlo.Config {
	cfg := montecarlo.DefaultConfig()
	if spec.MonteCarlo.Trials > 0 {
		cfg.Trials = spec.MonteCarlo.Trials
	}
	if spec.Seed != 0 {
		cfg.Seed = spec.Seed
	}
	return cfg
}

// campaignUnits returns how many units spec's campaign decomposes into:
// one per Monte Carlo trial, one per policy simulation of a set run, one
// per flattened (set, policy) simulation of the full experiments campaign.
func campaignUnits(spec JobSpec) int {
	switch spec.Kind {
	case KindSet:
		return experiments.SetPolicies
	case KindExperiments:
		return experiments.CampaignUnits
	default: // KindMonteCarlo; Validate admits nothing else
		return effectiveMonteCarloConfig(spec).Trials
	}
}

// shardOptions tunes the execution of one shard on a worker.
type shardOptions struct {
	// Workers bounds the fan-out within the shard.
	Workers int
	// Progress receives engine events (the worker daemon's own registry and
	// event hub, not the coordinator's).
	Progress runner.ProgressFunc
	// Journal checkpoints completed units keyed by their offset within the
	// shard, so a worker resuming a re-leased shard skips finished units.
	Journal *runner.Journal
}

// executeShardUnits computes units [from, to) of spec's campaign and
// returns one JSON-encoded unit result per unit, in unit order. The
// encoding is the wire form of ShardUpload.Units; mergeUnits decodes it
// back. JSON round-trips float64 exactly, so shipping units through this
// encoding cannot perturb the merged report.
func executeShardUnits(ctx context.Context, spec JobSpec, from, to int, opt shardOptions) ([]json.RawMessage, error) {
	total := campaignUnits(spec)
	if from < 0 || to > total || from >= to {
		return nil, fmt.Errorf("service: shard [%d, %d) out of range for %d units", from, to, total)
	}
	switch spec.Kind {
	case KindMonteCarlo:
		cfg := effectiveMonteCarloConfig(spec)
		trials, err := montecarlo.RunShardContext(ctx, cfg, from, to, montecarlo.Options{
			Workers: opt.Workers, Progress: opt.Progress, Journal: opt.Journal,
		})
		if err != nil {
			return nil, err
		}
		return encodeUnits(trials)
	case KindSet:
		sub := spec.Set
		cfg := scaleFor(sub.Scale).Config()
		if sub.EpochCycles > 0 {
			cfg.EpochCycles = sub.EpochCycles
		}
		instructions := sub.Instructions
		if instructions == 0 {
			instructions = experiments.ScaleModel.DefaultInstructions()
		}
		workloads := sub.Workloads
		if sub.Set != 0 {
			workloads = experiments.TableIIISets[sub.Set-1][:]
		}
		eopt := experiments.Options{Observe: spec.Observe, Fidelity: fidelityFor(spec)}
		runs, err := runner.Map(ctx, runner.Config{
			Workers: opt.Workers, Progress: opt.Progress, Journal: opt.Journal,
		}, to-from, func(ctx context.Context, u int) (experiments.PolicyRun, error) {
			return experiments.RunSetPolicyContext(ctx, cfg, workloads, instructions, from+u, eopt)
		})
		if err != nil {
			return nil, err
		}
		return encodeUnits(runs)
	default: // KindExperiments
		sub := spec.Experiments
		eopt := experiments.Options{Observe: spec.Observe, Fidelity: fidelityFor(spec)}
		runs, err := runner.Map(ctx, runner.Config{
			Workers: opt.Workers, Progress: opt.Progress, Journal: opt.Journal,
		}, to-from, func(ctx context.Context, u int) (experiments.PolicyRun, error) {
			return experiments.RunCampaignUnitContext(ctx, scaleFor(sub.Scale), sub.Instructions, from+u, eopt)
		})
		if err != nil {
			return nil, err
		}
		return encodeUnits(runs)
	}
}

// encodeUnits marshals each unit result to its wire form.
func encodeUnits[T any](units []T) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, len(units))
	for i, u := range units {
		data, err := json.Marshal(u)
		if err != nil {
			return nil, fmt.Errorf("service: encoding unit %d: %w", i, err)
		}
		out[i] = data
	}
	return out, nil
}

// decodeUnits unmarshals the wire units strictly back into their typed
// form.
func decodeUnits[T any](units []json.RawMessage) ([]T, error) {
	out := make([]T, len(units))
	for i, raw := range units {
		if err := json.Unmarshal(raw, &out[i]); err != nil {
			return nil, fmt.Errorf("service: decoding unit %d: %w", i, err)
		}
	}
	return out, nil
}

// mergeUnits folds a complete campaign's units (all of them, in unit
// order) into the job report, using the same assemblers and report
// builders the single-node paths use — so the merged bytes match a
// single-node run of the same spec exactly.
func mergeUnits(spec JobSpec, units []json.RawMessage) (*metrics.Report, error) {
	if got, want := len(units), campaignUnits(spec); got != want {
		return nil, fmt.Errorf("service: merge needs %d units, got %d", want, got)
	}
	switch spec.Kind {
	case KindMonteCarlo:
		trials, err := decodeUnits[montecarlo.Trial](units)
		if err != nil {
			return nil, err
		}
		return montecarlo.Assemble(trials).Report(), nil
	case KindSet:
		runs, err := decodeUnits[experiments.PolicyRun](units)
		if err != nil {
			return nil, err
		}
		sub := spec.Set
		workloads := sub.Workloads
		if sub.Set != 0 {
			workloads = experiments.TableIIISets[sub.Set-1][:]
		}
		res, err := experiments.AssembleSetResult(sub.Set, workloads, runs, spec.Observe)
		if err != nil {
			return nil, err
		}
		res.Fidelity = fidelityStamp(spec)
		return res.Report(), nil
	default: // KindExperiments
		runs, err := decodeUnits[experiments.PolicyRun](units)
		if err != nil {
			return nil, err
		}
		res, err := experiments.AssembleFig8Fig9(runs, spec.Observe)
		if err != nil {
			return nil, err
		}
		res.Fidelity = fidelityStamp(spec)
		return res.Report(), nil
	}
}

// planShards splits n units into contiguous shards of at most size units.
// size <= 0 selects a default that gives a small fleet a healthy number of
// shards to steal (n/16, at least 1).
func planShards(job string, n, size int) shardPlan {
	if size <= 0 {
		size = (n + 15) / 16
		if size < 1 {
			size = 1
		}
	}
	p := shardPlan{Version: shardPlanVersion, Job: job, Units: n}
	for from := 0; from < n; from += size {
		to := from + size
		if to > n {
			to = n
		}
		p.Shards = append(p.Shards, shardSpan{Index: len(p.Shards), From: from, To: to})
	}
	return p
}
