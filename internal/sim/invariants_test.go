package sim

import (
	"bytes"
	"testing"

	"bankaware/internal/core"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// These integration tests check cross-module invariants of the assembled
// system after realistic runs — properties no single unit test can see.

// runSystem builds and runs a system, returning it for inspection.
func runSystem(t *testing.T, policy core.Policy, names []string, instr uint64, mutate func(*Config)) *System {
	t.Helper()
	cfg := testConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := New(cfg, policy, specsFor(names...))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(instr); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestInvariantL2AccessesEqualL1Misses(t *testing.T) {
	sys := runSystem(t, core.EqualPolicy{}, mixedSet, 300_000, nil)
	for c := 0; c < nuca.NumCores; c++ {
		if sys.l1Misses[c] != sys.l2Hits[c]+sys.l2Misses[c] {
			t.Fatalf("core %d: %d L1 misses vs %d L2 hits + %d L2 misses",
				c, sys.l1Misses[c], sys.l2Hits[c], sys.l2Misses[c])
		}
	}
}

func TestInvariantBankStatsMatchSystemCounts(t *testing.T) {
	sys := runSystem(t, core.EqualPolicy{}, mixedSet, 300_000, nil)
	var bankAccesses, bankMisses uint64
	for _, b := range sys.banks {
		st := b.Stats()
		bankAccesses += st.Accesses
		bankMisses += st.Misses
	}
	var sysAccesses, sysMisses uint64
	for c := 0; c < nuca.NumCores; c++ {
		sysAccesses += sys.l1Misses[c]
		sysMisses += sys.l2Misses[c]
	}
	// The writebackToL2 path uses Insert, which does not count accesses,
	// so the totals must match exactly.
	if bankAccesses != sysAccesses {
		t.Fatalf("bank accesses %d vs system %d", bankAccesses, sysAccesses)
	}
	if bankMisses != sysMisses {
		t.Fatalf("bank misses %d vs system %d", bankMisses, sysMisses)
	}
}

func TestResetStatsClearsSharedResourceCounters(t *testing.T) {
	// Regression: ResetStats used to reset only core-side and bank counters,
	// so DRAMStats and DirectoryStats silently reported warm-up traffic on
	// top of the measurement window. Every shared-resource counter must
	// reset together.
	sys := runSystem(t, core.EqualPolicy{}, mixedSet, 300_000, nil)
	if sys.DRAMStats().Requests == 0 {
		t.Fatal("warm-up produced no DRAM requests")
	}
	ds := sys.DirectoryStats()
	if ds.ReadMisses == 0 {
		t.Fatal("warm-up produced no directory read misses")
	}
	sys.ResetStats()
	if r := sys.DRAMStats().Requests; r != 0 {
		t.Fatalf("DRAM requests %d after ResetStats, want 0", r)
	}
	after := sys.DirectoryStats()
	if after.ReadMisses != 0 || after.WriteMisses != 0 || after.Invalidations != 0 {
		t.Fatalf("directory counters %+v after ResetStats, want zero", after)
	}
	// The measurement window then accumulates fresh counts from zero.
	if err := sys.Run(500_000); err != nil {
		t.Fatal(err)
	}
	if sys.DRAMStats().Requests == 0 {
		t.Fatal("measured window recorded no DRAM requests")
	}
}

func TestInvariantPartitionOccupancyBounds(t *testing.T) {
	// Under a static partitioned policy, no core's L2 occupancy may exceed
	// its allocation (ways x sets), in any bank.
	sys := runSystem(t, core.EqualPolicy{}, mixedSet, 400_000, nil)
	for bi, b := range sys.banks {
		occ := b.Occupancy()
		for c := 0; c < nuca.NumCores; c++ {
			limit := sys.alloc.WaysIn(c, bi) * sys.cfg.BankSets
			if occ[c] > limit {
				t.Fatalf("bank %d: core %d occupies %d lines, allocation allows %d",
					bi, c, occ[c], limit)
			}
		}
	}
}

func TestInvariantDirectoryCoversL1Contents(t *testing.T) {
	// Every valid L1 line must be tracked by the directory in a non-
	// invalid state for its core (inclusion bookkeeping).
	sys := runSystem(t, core.EqualPolicy{}, mixedSet, 200_000, nil)
	for c := 0; c < nuca.NumCores; c++ {
		if sys.l1s[c].ValidLines() == 0 {
			t.Fatalf("core %d has an empty L1 after a run", c)
		}
	}
	// Spot-check: replay each core's next few blocks through Probe and
	// the directory.
	checked := 0
	for c := 0; c < nuca.NumCores; c++ {
		ev := sys.nextEvent(c)
		a := ev.Access.Addr
		if sys.l1s[c].Probe(a) {
			if sys.dir.StateOf(a, c) == 0 { // coherence.Invalid
				t.Fatalf("core %d holds %#x in L1 but directory says Invalid", c, a)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Skip("no resident spot-check candidates this run")
	}
}

func TestInvariantCyclesMonotoneWithInstructions(t *testing.T) {
	cfg := testConfig()
	sys, err := New(cfg, core.EqualPolicy{}, specsFor(mixedSet...))
	if err != nil {
		t.Fatal(err)
	}
	var lastCycles int64
	for k := 1; k <= 4; k++ {
		if err := sys.Run(uint64(k) * 100_000); err != nil {
			t.Fatal(err)
		}
		// Per-core clocks advance independently; compare the minimum.
		min := sys.cores[0].Now()
		for _, cc := range sys.cores {
			if cc.Now() < min {
				min = cc.Now()
			}
		}
		if min < lastCycles {
			t.Fatalf("time went backwards: %d after %d", min, lastCycles)
		}
		lastCycles = min
	}
}

func TestInvariantHashedPlacementSingleLocation(t *testing.T) {
	// Under the hashed shared baseline, a block may live in exactly one
	// bank (its hash home).
	sys := runSystem(t, core.NoPartitionPolicy{}, mixedSet, 200_000, nil)
	probes := 0
	for c := 0; c < nuca.NumCores; c++ {
		for k := 0; k < 50; k++ {
			a := sys.nextEvent(c).Access.Addr
			resident := 0
			for _, b := range sys.banks {
				if b.Probe(a) {
					resident++
				}
			}
			if resident > 1 {
				t.Fatalf("block %#x resident in %d banks under hashed placement", a, resident)
			}
			probes++
		}
	}
	if probes == 0 {
		t.Fatal("no probes executed")
	}
}

func TestStrictLookupEndToEnd(t *testing.T) {
	// The strict-enforcement variant must run cleanly under the dynamic
	// policy (repartitions forfeit blocks instead of cross-hitting) and
	// cost some extra misses relative to the lazy default.
	lazy := runSystem(t, core.NewBankAwarePolicy(), mixedSet, 800_000, nil)
	strict := runSystem(t, core.NewBankAwarePolicy(), mixedSet, 800_000, func(c *Config) {
		c.L2StrictLookup = true
	})
	lr, sr := lazy.Result(mixedSet), strict.Result(mixedSet)
	if sr.TotalL2Misses < lr.TotalL2Misses {
		t.Fatalf("strict lookup (%d misses) beat lazy (%d); enforcement cost missing",
			sr.TotalL2Misses, lr.TotalL2Misses)
	}
	// And no cross-partition hits may be recorded in strict mode.
	for _, b := range strict.banks {
		if b.Stats().CrossHits != 0 {
			t.Fatal("strict mode recorded cross-partition hits")
		}
	}
}

func TestTraceReplayDrivesSimulator(t *testing.T) {
	// Record a generator, replay it as a stream: the replay-driven system
	// must produce identical L2 behaviour to the generator-driven one.
	cfg := testConfig()
	mkStreams := func() []trace.Stream {
		streams := make([]trace.Stream, nuca.NumCores)
		for c := 0; c < nuca.NumCores; c++ {
			streams[c] = trace.MustGenerator(trace.MustSpec(mixedSet[c]), statsRNG(uint64(c+77)),
				trace.GeneratorConfig{BlocksPerWay: cfg.BankSets, Base: trace.Addr(uint64(c+1) << 40)})
		}
		return streams
	}
	live, err := NewWithStreams(cfg, core.EqualPolicy{}, mkStreams())
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Run(120_000); err != nil {
		t.Fatal(err)
	}

	// Record long-enough traces of identical generators.
	replayStreams := make([]trace.Stream, nuca.NumCores)
	src := mkStreams()
	for c := range src {
		replayStreams[c] = recordN(t, src[c], 40_000).Stream()
	}
	replay, err := NewWithStreams(cfg, core.EqualPolicy{}, replayStreams)
	if err != nil {
		t.Fatal(err)
	}
	if err := replay.Run(120_000); err != nil {
		t.Fatal(err)
	}
	a, b := live.Result(mixedSet), replay.Result(mixedSet)
	if a.TotalL2Misses != b.TotalL2Misses || a.MeanCPI != b.MeanCPI {
		t.Fatalf("replay diverged: %d/%.4f vs %d/%.4f",
			a.TotalL2Misses, a.MeanCPI, b.TotalL2Misses, b.MeanCPI)
	}
}

// recordN captures n events into an in-memory trace.
func recordN(t *testing.T, s trace.Stream, n int) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.RecordStream(s, n, &buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
