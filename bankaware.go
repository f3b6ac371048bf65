// Package bankaware is a from-scratch reproduction of "Bank-aware Dynamic
// Cache Partitioning for Multicore Architectures" (Kaseridis, Stuecheli and
// John, ICPP 2009): dynamic last-level-cache partitioning for an 8-core CMP
// with a 16-bank DNUCA L2, driven by Mattson stack-distance profilers and a
// marginal-utility allocator that respects physical banking restrictions.
//
// This root package is the public facade: it re-exports the library's
// stable surface so applications depend on one import path.
//
//   - Workloads: Spec, Catalog, Generator — the synthetic SPEC CPU2000-like
//     workload substrate (stack-distance-driven access streams).
//   - Profiling: Profiler — the MSA monitor with partial tags and set
//     sampling, plus the Table II overhead model.
//   - Partitioning: MissCurve, BankAware, Unrestricted and the Policy
//     implementations — the paper's contribution.
//   - Simulation: System, Config, Result — the full-system discrete-event
//     simulator (cores, L1s, DNUCA L2, MOESI directory, interconnect,
//     DRAM).
//   - Evaluation: MonteCarlo (Fig. 7) and the experiments package's
//     Table III set runners (Figs. 8 and 9).
//   - Execution: Runner and the RunMonteCarloContext /
//     RunExperimentsContext entry points (runner.go) — the parallel,
//     context-aware engine every campaign fans out through.
//
// See examples/ for runnable scenarios and DESIGN.md / EXPERIMENTS.md for
// the experiment index and measured results.
package bankaware

import (
	"bankaware/internal/cache"
	"bankaware/internal/core"
	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/montecarlo"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/sim"
	"bankaware/internal/stats"
	"bankaware/internal/trace"
)

// RNG is the deterministic random source all workload generation uses.
type RNG = stats.RNG

// NewRNG seeds a deterministic random source.
var NewRNG = stats.NewRNG

// Workload substrate.
type (
	// Spec declares a synthetic workload's reuse behaviour.
	Spec = trace.Spec
	// Access is one memory reference.
	Access = trace.Access
	// Event is a gap of non-memory instructions plus one access.
	Event = trace.Event
	// Stream is any source of memory events.
	Stream = trace.Stream
	// Generator realises a Spec as a deterministic access stream.
	Generator = trace.Generator
	// GeneratorConfig carries generator environment parameters.
	GeneratorConfig = trace.GeneratorConfig
	// Phase is one segment of a phased workload.
	Phase = trace.Phase
	// PhasedGenerator cycles through phases.
	PhasedGenerator = trace.PhasedGenerator
)

// Profiling.
type (
	// Profiler is the MSA stack-distance monitor.
	Profiler = msa.Profiler
	// ProfilerConfig parametrises a profiler.
	ProfilerConfig = msa.Config
)

// Partitioning.
type (
	// MissCurve is a projected miss-count curve over way allocations.
	MissCurve = core.MissCurve
	// Allocation is a physical partition of the 16-bank L2.
	Allocation = core.Allocation
	// Policy computes allocations from miss curves.
	Policy = core.Policy
	// BankAwareConfig parametrises the Fig. 6 allocator.
	BankAwareConfig = core.BankAwareConfig
	// UnrestrictedConfig parametrises the idealised UCP-style allocator.
	UnrestrictedConfig = core.UnrestrictedConfig
)

// Simulation.
type (
	// SimConfig is the full-system simulator configuration (Table I).
	SimConfig = sim.Config
	// System is one simulated CMP instance.
	System = sim.System
	// Result reports a run's per-core and system metrics.
	Result = sim.Result
)

// Monte Carlo (Fig. 7).
type (
	// MonteCarloConfig parametrises the Fig. 7 experiment.
	MonteCarloConfig = montecarlo.Config
	// MonteCarloResults holds the sorted trial ratios.
	MonteCarloResults = montecarlo.Results
)

// Observability: the metrics registry, the epoch-aligned observation
// stream, and the versioned machine-readable run report every campaign
// can emit (schema ReportSchema). See Runner's WithMetrics and
// WithReportWriter options and System.EnableMetrics.
type (
	// MetricsRegistry is a namespace of named counters/gauges/histograms.
	MetricsRegistry = metrics.Registry
	// MetricsRecorder bundles a registry with a simulation's epoch samples
	// and partition events.
	MetricsRecorder = metrics.Recorder
	// Report is the versioned machine-readable campaign report.
	Report = metrics.Report
	// RunReport is one simulation's totals, epoch series and events.
	RunReport = metrics.RunReport
	// EpochSample is one epoch window of the observed time series.
	EpochSample = metrics.EpochSample
	// CoreSample is one core's activity within an epoch window.
	CoreSample = metrics.CoreSample
	// PartitionEvent records one core's allocation changing at an epoch.
	PartitionEvent = metrics.PartitionEvent
)

// ReportSchema is the run-report JSON layout version.
const ReportSchema = metrics.Schema

// Fault injection: deterministic, seed-driven fault plans degrade a run at
// scheduled epochs — L2 banks fail (contents lost, capacity re-partitioned
// around them) or slow down, miss-curve profiling turns noisy or stale, and
// DRAM latency spikes. See Runner's WithFaultPlan option, SimConfig.Faults,
// and DESIGN.md's fault-model section.
type (
	// FaultPlan is a deterministic schedule of fault events.
	FaultPlan = faults.Plan
	// FaultEvent is one scheduled fault.
	FaultEvent = faults.Event
	// FaultKind distinguishes fault event types.
	FaultKind = faults.Kind
	// FaultGenSpec parametrises random plan generation.
	FaultGenSpec = faults.GenSpec
	// BankSet is a bitmask over the 16 L2 banks.
	BankSet = nuca.BankSet
)

// Fault kinds.
const (
	// FaultBankFail marks an L2 bank failed (contents lost, capacity gone).
	FaultBankFail = faults.BankFail
	// FaultBankSlow adds access latency to one bank.
	FaultBankSlow = faults.BankSlow
	// FaultCurveNoise perturbs the miss curves the policies see.
	FaultCurveNoise = faults.CurveNoise
	// FaultCurveStale freezes profiler curves at the previous epoch's view.
	FaultCurveStale = faults.CurveStale
	// FaultDRAMSpike adds latency to every DRAM access.
	FaultDRAMSpike = faults.DRAMSpike
)

// Fault-plan entry points.
var (
	// LoadFaultPlan reads and validates a JSON fault plan from a file.
	LoadFaultPlan = faults.Load
	// ParseFaultPlan reads and validates a JSON fault plan from bytes.
	ParseFaultPlan = faults.Parse
	// GenerateFaultPlan draws a random plan from a spec and seeded RNG.
	GenerateFaultPlan = faults.Generate
)

// Observability entry points.
var (
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = metrics.NewRegistry
	// NewMetricsRecorder returns a recorder with a fresh registry.
	NewMetricsRecorder = metrics.NewRecorder
	// ReadReport parses a report written by Report.WriteJSON and checks
	// its schema version.
	ReadReport = metrics.ReadReport
	// DiffReports compares two reports' summaries and run totals,
	// returning one line per difference.
	DiffReports = metrics.Diff
)

// Workload catalogue.
var (
	// Catalog returns the 26 SPEC CPU2000-like workloads.
	Catalog = trace.Catalog
	// SpecByName looks a workload up by name.
	SpecByName = trace.SpecByName
	// CatalogNames lists the catalogue.
	CatalogNames = trace.CatalogNames
	// NewGenerator builds a deterministic access stream for a Spec.
	NewGenerator = trace.NewGenerator
	// NewPhasedGenerator builds a phase-cycling stream.
	NewPhasedGenerator = trace.NewPhasedGenerator
)

// Profiler constructors.
var (
	// NewProfiler builds an MSA profiler.
	NewProfiler = msa.NewProfiler
	// BaselineHardwareProfiler is the paper's low-overhead configuration
	// (12-bit partial tags, 1-in-32 set sampling, 72-way cap).
	BaselineHardwareProfiler = msa.BaselineHardware
	// BaselineExactProfiler is the full-tag, all-sets configuration.
	BaselineExactProfiler = msa.BaselineExact
)

// Partitioning entry points.
var (
	// BankAware runs the paper's Fig. 6 allocation algorithm.
	BankAware = core.BankAware
	// Unrestricted runs the idealised lookahead allocator.
	Unrestricted = core.Unrestricted
	// NewBankAwarePolicy returns the dynamic bank-aware policy.
	NewBankAwarePolicy = core.NewBankAwarePolicy
	// PolicyByName resolves none|equal|bankaware.
	PolicyByName = core.PolicyByName
	// DefaultBankAware returns the paper's allocator parameters.
	DefaultBankAware = core.DefaultBankAware
	// DefaultUnrestricted returns the baseline idealised parameters.
	DefaultUnrestricted = core.DefaultUnrestricted
)

// Static policies.
type (
	// NoPartitionPolicy is the shared-LRU baseline.
	NoPartitionPolicy = core.NoPartitionPolicy
	// EqualPolicy is the static even (private) split.
	EqualPolicy = core.EqualPolicy
	// BankAwarePolicy is the paper's dynamic policy.
	BankAwarePolicy = core.BankAwarePolicy
)

// Simulation entry points.
var (
	// NewSystem builds a full-system simulation of 8 workload specs.
	NewSystem = sim.New
	// NewSystemWithStreams builds a simulation over custom streams. Each
	// stream is advanced by a single goroutine, which may not be the
	// caller's, and distinct streams must not share mutable state (see
	// sim.NewWithStreams).
	NewSystemWithStreams = sim.NewWithStreams
	// DefaultSimConfig is the paper's Table I machine.
	DefaultSimConfig = sim.DefaultConfig
)

// MonteCarlo entry points.
var (
	// DefaultMonteCarloConfig reproduces the paper's 1000-trial setup.
	DefaultMonteCarloConfig = montecarlo.DefaultConfig
)

// Extensions beyond the paper.
type (
	// BandwidthAwarePolicy allocates by miss *cost* using DRAM-queueing
	// feedback (the authors' follow-up direction).
	BandwidthAwarePolicy = core.BandwidthAwarePolicy
	// FeedbackPolicy is the interface the epoch controller feeds
	// memory-subsystem pressure through.
	FeedbackPolicy = core.FeedbackPolicy
	// ReplacementPolicy selects a cache bank's victim policy.
	ReplacementPolicy = cache.ReplacementPolicy
	// Trace is a recorded access stream.
	Trace = trace.Trace
	// TraceRecorder serialises access streams.
	TraceRecorder = trace.Recorder
)

// Replacement policies.
const (
	// ReplacementLRU is true least-recently-used (the paper's model).
	ReplacementLRU = cache.LRU
	// ReplacementTreePLRU is binary-tree pseudo-LRU (realistic hardware).
	ReplacementTreePLRU = cache.TreePLRU
)

// Extension constructors and trace I/O.
var (
	// NewBandwidthAwarePolicy returns the feedback-driven extension.
	NewBandwidthAwarePolicy = core.NewBandwidthAwarePolicy
	// WriteTraceFile records a stream to a gzip trace file.
	WriteTraceFile = trace.WriteTraceFile
	// ReadTraceFile loads a gzip trace file.
	ReadTraceFile = trace.ReadTraceFile
	// RecordStream captures n events of a stream to a writer.
	RecordStream = trace.RecordStream
	// ReadTrace parses a trace from a reader.
	ReadTrace = trace.ReadTrace
	// NewTraceRecorder starts a trace on a writer.
	NewTraceRecorder = trace.NewRecorder
)
