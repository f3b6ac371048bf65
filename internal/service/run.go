package service

import (
	"context"
	"os"

	"bankaware/internal/experiments"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/runner"
)

// progressEvent is the payload of EventProgress frames: one engine
// notification with the counters after it.
type progressEvent struct {
	Event   string `json:"event"` // started | done | failed | retried
	Job     int    `json:"job"`
	Total   int    `json:"total"`
	Started int    `json:"started"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Retried int    `json:"retried,omitempty"`
	// ElapsedMS is the finished job's wall time.
	ElapsedMS int64  `json:"elapsedMs,omitempty"`
	Error     string `json:"error,omitempty"`
}

// epochEvent is the payload of EventEpoch frames: one live epoch sample
// tagged with the simulation run it belongs to.
type epochEvent struct {
	Run    string              `json:"run"`
	Sample metrics.EpochSample `json:"sample"`
}

// progressFor builds the job's engine hook: count into the service registry,
// stream to the job's SSE hub, then forward to the configured observer.
func (s *Service) progressFor(jb *job) runner.ProgressFunc {
	return runner.CountInto(s.reg, func(p runner.Progress) {
		ev := progressEvent{
			Event: p.Kind.String(), Job: p.Job, Total: p.Total,
			Started: p.Started, Done: p.Done, Failed: p.Failed, Retried: p.Retried,
			ElapsedMS: p.Elapsed.Milliseconds(),
		}
		if p.Err != nil {
			ev.Error = p.Err.Error()
		}
		jb.hub.publish(EventProgress, ev)
		if s.cfg.OnProgress != nil {
			s.cfg.OnProgress(jb.id, p)
		}
	})
}

// sampleFor builds the job's live epoch tap.
func (s *Service) sampleFor(jb *job) func(run string, sm metrics.EpochSample) {
	return func(run string, sm metrics.EpochSample) {
		jb.hub.publish(EventEpoch, epochEvent{Run: run, Sample: sm})
	}
}

// workersFor resolves the job's fan-out bound.
func (s *Service) workersFor(spec JobSpec) int {
	if spec.Workers > 0 {
		return spec.Workers
	}
	return s.cfg.Workers
}

func scaleFor(name string) experiments.Scale {
	if name == "full" {
		return experiments.ScaleFull
	}
	return experiments.ScaleModel
}

// runJob executes the job's campaign through the same internal entry points
// bankaware.Runner uses and builds the report with the same builders — the
// stored report bytes are exactly what a direct Runner run with the same
// parameters would have written.
func (s *Service) runJob(ctx context.Context, jb *job) (*metrics.Report, error) {
	if s.coord != nil {
		// Coordinator mode: the campaign executes on pulling workers, and
		// the merged report is byte-identical to the local paths below.
		return s.runDistributed(ctx, jb)
	}
	spec := jb.spec
	switch spec.Kind {
	case KindSet:
		return s.runSet(ctx, jb)
	case KindExperiments:
		return s.runExperiments(ctx, jb)
	default: // KindMonteCarlo; Validate admits nothing else
		return s.runMonteCarlo(ctx, jb)
	}
}

func (s *Service) experimentOptions(jb *job) experiments.Options {
	return experiments.Options{
		Workers:  s.workersFor(jb.spec),
		Progress: s.progressFor(jb),
		Sample:   s.sampleFor(jb),
		Seed:     jb.spec.Seed,
		Observe:  jb.spec.Observe,
		Fidelity: fidelityFor(jb.spec),
	}
}

func (s *Service) runSet(ctx context.Context, jb *job) (*metrics.Report, error) {
	sub := jb.spec.Set
	cfg := scaleFor(sub.Scale).Config()
	if sub.EpochCycles > 0 {
		cfg.EpochCycles = sub.EpochCycles
	}
	instructions := sub.Instructions
	if instructions == 0 {
		// Mirror Runner.RunSet: zero selects the model-scale default.
		instructions = experiments.ScaleModel.DefaultInstructions()
	}
	workloads := sub.Workloads
	if sub.Set != 0 {
		workloads = experiments.TableIIISets[sub.Set-1][:]
	}
	res, err := experiments.RunSetContext(ctx, cfg, sub.Set, workloads, instructions, s.experimentOptions(jb))
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

func (s *Service) runExperiments(ctx context.Context, jb *job) (*metrics.Report, error) {
	sub := jb.spec.Experiments
	res, err := experiments.RunFig8Fig9Context(ctx, scaleFor(sub.Scale), sub.Instructions, s.experimentOptions(jb))
	if err != nil {
		return nil, err
	}
	return res.Report(), nil
}

func (s *Service) runMonteCarlo(ctx context.Context, jb *job) (*metrics.Report, error) {
	cfg := montecarlo.DefaultConfig()
	if jb.spec.MonteCarlo.Trials > 0 {
		cfg.Trials = jb.spec.MonteCarlo.Trials
	}
	if jb.spec.Seed != 0 {
		cfg.Seed = jb.spec.Seed
	}
	// Every Monte Carlo job keeps a checkpoint journal: completed trials
	// survive a drain or crash, and the resumed campaign's report is
	// byte-identical to an uninterrupted one (montecarlo's contract).
	journal, err := runner.OpenJournal(s.store.JournalPath(jb.id))
	if err != nil {
		return nil, err
	}
	opt := montecarlo.Options{
		Workers:  s.workersFor(jb.spec),
		Progress: s.progressFor(jb),
		Journal:  journal,
	}
	res, err := montecarlo.RunContext(ctx, cfg, opt)
	closeErr := journal.Close()
	if err != nil {
		return nil, err
	}
	if closeErr != nil {
		return nil, closeErr
	}
	// The campaign finished; the journal has served its purpose.
	os.Remove(s.store.JournalPath(jb.id))
	return res.Report(), nil
}
