package sim

import (
	"fmt"

	"bankaware/internal/core"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
	"bankaware/internal/stats"
)

// CoreCounters is one core's cumulative activity at an instant, as an
// engine reports it to the epoch controller.
type CoreCounters struct {
	Instructions uint64
	Cycles       int64 // the core's local clock
	L1Accesses   uint64
	// L1Misses are the requests that left the L1 (Result's per-core
	// L2Accesses); L2Accesses are the L2 lookups (the epoch series'
	// L2Accesses). Each report field keeps reading its own counter.
	L1Misses   uint64
	L2Accesses uint64
	L2Misses   uint64
}

func (a CoreCounters) sub(b CoreCounters) CoreCounters {
	return CoreCounters{
		Instructions: a.Instructions - b.Instructions,
		Cycles:       a.Cycles - b.Cycles,
		L1Accesses:   a.L1Accesses - b.L1Accesses,
		L1Misses:     a.L1Misses - b.L1Misses,
		L2Accesses:   a.L2Accesses - b.L2Accesses,
		L2Misses:     a.L2Misses - b.L2Misses,
	}
}

// MissCost is one core's L2 miss latency accumulated over the closing
// epoch: the input of FeedbackPolicy's miss-cost weights.
type MissCost struct {
	Cycles, Misses float64
}

// Engine is what the epoch controller reads from the engine that owns it.
type Engine interface {
	// CoreCounters reports core c's cumulative counters now.
	CoreCounters(c int) CoreCounters
	// BankOccupancy reports every bank's resident lines now.
	BankOccupancy() []int
}

// Controller is the epoch-boundary path both engines share: it feeds the
// miss-cost weights and the engine's miss curves to the policy, validates
// the allocation, and owns everything that records the loop — the
// measurement-window baselines behind ResetStats, the epoch time series,
// the partition-event log, Result and RunReport. The engine that embeds it
// produces the curves, installs the returned allocation and reports its
// counters through Engine.
type Controller struct {
	eng    Engine
	policy core.Policy
	alloc  *core.Allocation
	epochs int

	// weights is reused across epochs: SetFeedback copies it.
	weights [nuca.NumCores]float64
	// base marks the start of the measurement window (ResetStats), win the
	// start of the current epoch window.
	base, win [nuca.NumCores]CoreCounters
	// rec is the observation layer (nil unless EnableMetrics was called).
	rec *metrics.Recorder
}

// NewController returns the controller an engine embeds; eng is that
// engine.
func NewController(eng Engine, policy core.Policy) Controller {
	return Controller{eng: eng, policy: policy}
}

// Policy returns the active policy.
func (e *Controller) Policy() core.Policy { return e.policy }

// Allocation returns the current physical allocation.
func (e *Controller) Allocation() *core.Allocation { return e.alloc }

// Epochs returns how many repartitionings have run (including the initial
// one).
func (e *Controller) Epochs() int { return e.epochs }

// Observed returns the attached recorder (nil when EnableMetrics was never
// called).
func (e *Controller) Observed() *metrics.Recorder { return e.rec }

// EpochBoundary runs the policy at the epoch boundary firing at cycle now
// (zero for the initial allocation) and returns the allocation the engine
// must install. Feedback policies first receive the closing epoch's
// miss-cost weights; with failed banks the policy re-partitions the
// survivors. When observed, the closing epoch window is sampled and the
// allocation diff logged before the new allocation takes effect.
func (e *Controller) EpochBoundary(now int64, curves []core.MissCurve, failed nuca.BankSet, cost [nuca.NumCores]MissCost) (*core.Allocation, error) {
	if fp, ok := e.policy.(core.FeedbackPolicy); ok {
		fp.SetFeedback(e.missCostWeights(cost))
	}
	var alloc *core.Allocation
	var err error
	if failed != 0 {
		dp, ok := e.policy.(core.DegradedPolicy)
		if !ok {
			return nil, fmt.Errorf("sim: policy %s cannot re-partition around failed banks %v",
				e.policy.Name(), failed)
		}
		alloc, err = dp.AllocateDegraded(curves, failed)
	} else {
		alloc, err = e.policy.Allocate(curves)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %s allocation failed: %w", e.policy.Name(), err)
	}
	if alloc.Failed != failed {
		return nil, fmt.Errorf("sim: %s allocation marks banks %v failed, fault plan says %v",
			e.policy.Name(), alloc.Failed, failed)
	}
	if err := alloc.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %s produced invalid allocation: %w", e.policy.Name(), err)
	}
	if e.rec != nil && e.alloc != nil {
		// Close the epoch window under the outgoing allocation, then log
		// what the policy changed.
		e.sampleWindow(now)
		e.recordAllocEvents(alloc, e.alloc, len(e.rec.Samples), now)
	}
	e.alloc = alloc
	e.epochs++
	return alloc, nil
}

// missCostWeights summarises the epoch's memory-subsystem pressure per
// core: each core's average miss latency relative to the across-core mean.
// Cores whose misses queued longest get weights above one. Cores with no
// misses report zero (FeedbackPolicy keeps their previous weight).
func (e *Controller) missCostWeights(cost [nuca.NumCores]MissCost) []float64 {
	avg := e.weights[:]
	for c := range avg {
		avg[c] = 0
	}
	var sum float64
	var n int
	for c := range avg {
		if cost[c].Misses > 0 {
			avg[c] = cost[c].Cycles / cost[c].Misses
			sum += avg[c]
			n++
		}
	}
	if n == 0 {
		return avg
	}
	mean := sum / float64(n)
	for c := range avg {
		if avg[c] > 0 {
			avg[c] /= mean
		}
	}
	return avg
}

// EnableMetrics attaches the observation layer: from now on each epoch
// boundary closes a time-series window and logs the policy's allocation
// changes. Passing nil creates a fresh recorder. Engines extend it with
// their own registry entries; it returns the recorder in use.
func (e *Controller) EnableMetrics(rec *metrics.Recorder) *metrics.Recorder {
	if rec == nil {
		rec = metrics.NewRecorder()
	}
	e.rec = rec
	rec.Registry.RegisterFunc("sim.epochs", func() float64 { return float64(e.epochs) })
	e.seedWindowBaselines()
	e.recordAllocEvents(e.alloc, nil, 0, e.maxNow())
	return rec
}

// ResetStats starts the measurement window: Result reports activity from
// here on, and the observation layer drops its recorded samples and events
// and re-logs the current allocation as the window's initial state.
func (e *Controller) ResetStats() {
	for c := range e.base {
		e.base[c] = e.eng.CoreCounters(c)
	}
	if e.rec != nil {
		e.rec.ResetSeries()
		e.seedWindowBaselines()
		e.recordAllocEvents(e.alloc, nil, 0, e.maxNow())
	}
}

// seedWindowBaselines marks the current counters as the start of the next
// epoch window.
func (e *Controller) seedWindowBaselines() {
	for c := range e.win {
		e.win[c] = e.eng.CoreCounters(c)
	}
}

// maxNow returns the most advanced core clock — the system's notion of
// "now" for sampling purposes.
func (e *Controller) maxNow() int64 {
	var t int64
	for c := 0; c < nuca.NumCores; c++ {
		if now := e.eng.CoreCounters(c).Cycles; now > t {
			t = now
		}
	}
	return t
}

// sampleWindow closes the epoch window ending at cycle now: per-core
// deltas since the window baselines, derived miss rate and IPC, the way
// allocation that was in effect, and per-bank occupancy. Windows with no
// activity are skipped, which makes the final flush idempotent.
func (e *Controller) sampleWindow(now int64) {
	cores := make([]metrics.CoreSample, nuca.NumCores)
	active := false
	for c := range cores {
		d := e.eng.CoreCounters(c).sub(e.win[c])
		cs := metrics.CoreSample{
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			L2Accesses:   d.L2Accesses,
			L2Misses:     d.L2Misses,
			Ways:         e.alloc.Ways[c],
		}
		if d.L2Accesses > 0 {
			cs.MissRate = float64(d.L2Misses) / float64(d.L2Accesses)
		}
		if d.Cycles > 0 {
			cs.IPC = float64(d.Instructions) / float64(d.Cycles)
		}
		if d.Instructions > 0 || d.L2Accesses > 0 {
			active = true
		}
		cores[c] = cs
	}
	if !active {
		return
	}
	e.seedWindowBaselines()
	sample := metrics.EpochSample{
		Epoch:         len(e.rec.Samples) + 1,
		EndCycle:      now,
		Cores:         cores,
		BankOccupancy: e.eng.BankOccupancy(),
	}
	e.rec.Samples = append(e.rec.Samples, sample)
	if e.rec.OnSample != nil {
		e.rec.OnSample(sample)
	}
}

// recordAllocEvents logs every core whose assignment differs between old
// and next (old may be nil: the initial install, every core reported).
func (e *Controller) recordAllocEvents(next, old *core.Allocation, epoch int, cycle int64) {
	for _, ch := range next.DiffFrom(old) {
		e.rec.Events = append(e.rec.Events, metrics.PartitionEvent{
			Epoch:    epoch,
			Cycle:    cycle,
			Policy:   e.policy.Name(),
			Core:     ch.Core,
			OldWays:  ch.OldWays,
			NewWays:  ch.NewWays,
			OldBanks: ch.OldBanks,
			NewBanks: ch.NewBanks,
		})
	}
}

// Result snapshots the measurement window (everything since the last
// ResetStats, or the whole run).
func (e *Controller) Result(workloads []string) Result {
	r := Result{Policy: e.policy.Name(), Epochs: e.epochs}
	var cpis []float64
	for c := 0; c < nuca.NumCores; c++ {
		d := e.eng.CoreCounters(c).sub(e.base[c])
		cr := CoreResult{
			Instructions: d.Instructions,
			Cycles:       d.Cycles,
			L1Accesses:   d.L1Accesses,
			L2Accesses:   d.L1Misses,
			L2Misses:     d.L2Misses,
			Ways:         e.alloc.Ways[c],
		}
		if len(workloads) == nuca.NumCores {
			cr.Workload = workloads[c]
		}
		if d.Instructions > 0 {
			cr.CPI = float64(d.Cycles) / float64(d.Instructions)
			cpis = append(cpis, cr.CPI)
		}
		r.Cores[c] = cr
		r.TotalL2Accesses += cr.L2Accesses
		r.TotalL2Misses += cr.L2Misses
	}
	r.MissRatio = stats.Ratio(float64(r.TotalL2Misses), float64(r.TotalL2Accesses))
	r.MeanCPI = stats.Mean(cpis)
	return r
}

// RunReport exports the measurement window as a run report: the Result
// totals plus, when EnableMetrics is attached, the epoch time series, the
// partition-event and fault-event logs, and a registry snapshot. It
// flushes the final partial epoch window first. name defaults to the
// policy name.
func (e *Controller) RunReport(name string, workloads []string) metrics.RunReport {
	res := e.Result(workloads)
	if name == "" {
		name = res.Policy
	}
	rr := metrics.RunReport{
		Name:      name,
		Policy:    res.Policy,
		Workloads: append([]string(nil), workloads...),
		Epochs:    res.Epochs,
		Totals: metrics.RunTotals{
			L2Accesses: res.TotalL2Accesses,
			L2Misses:   res.TotalL2Misses,
			MissRatio:  res.MissRatio,
			MeanCPI:    res.MeanCPI,
		},
	}
	for c := 0; c < nuca.NumCores; c++ {
		cr := res.Cores[c]
		ct := metrics.CoreTotals{
			Workload:     cr.Workload,
			Instructions: cr.Instructions,
			Cycles:       cr.Cycles,
			L1Accesses:   cr.L1Accesses,
			L2Accesses:   cr.L2Accesses,
			L2Misses:     cr.L2Misses,
			CPI:          cr.CPI,
			Ways:         cr.Ways,
		}
		if cr.L2Accesses > 0 {
			ct.MissRate = float64(cr.L2Misses) / float64(cr.L2Accesses)
		}
		if cr.Cycles > 0 {
			ct.IPC = float64(cr.Instructions) / float64(cr.Cycles)
		}
		rr.Cores = append(rr.Cores, ct)
	}
	if e.rec != nil {
		e.sampleWindow(e.maxNow())
		rr.EpochSeries = append([]metrics.EpochSample(nil), e.rec.Samples...)
		rr.PartitionEvents = append([]metrics.PartitionEvent(nil), e.rec.Events...)
		rr.FaultEvents = append([]metrics.FaultEvent(nil), e.rec.Faults...)
		rr.Metrics = e.rec.Registry.Snapshot()
	}
	return rr
}
