package sim

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"bankaware/internal/core"
	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// parallelTestConfig is a small machine that still repartitions several
// times within a short run, so the oracle exercises the profiler barrier.
func parallelTestConfig() Config {
	cfg := DefaultConfig()
	cfg.BankSets = 128
	cfg.L1.Sets = 32
	cfg.Profiler = msa.Config{Sets: 128, MaxWays: 72, SampleLog2: 0, PartialTagBits: 12}
	cfg.EpochCycles = 150_000
	return cfg
}

func parallelTestSpecs(t *testing.T) []trace.Spec {
	t.Helper()
	specs := make([]trace.Spec, len(set1Names))
	for i, n := range set1Names {
		s, err := trace.SpecByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	return specs
}

// stateDigest snapshots everything Result and the observation layer can see.
type stateDigest struct {
	res      Result
	dir      interface{}
	net      interface{}
	dram     interface{}
	occupied [nuca.NumBanks]int
}

func digest(s *System, workloads []string) stateDigest {
	d := stateDigest{
		res:  s.Result(workloads),
		dir:  s.DirectoryStats(),
		net:  s.NetworkStats(),
		dram: s.DRAMStats(),
	}
	for b := 0; b < nuca.NumBanks; b++ {
		d.occupied[b] = s.banks[b].ValidLines()
	}
	return d
}

// set1Names is Table III set 1, the mix parallelTestSpecs builds.
var set1Names = []string{"apsi", "galgel", "gcc", "mgrid", "applu", "mesa", "facerec", "gzip"}

// newExecSystem builds a set-1 system forced onto one executor: pipelined
// or the sequential reference.
func newExecSystem(t *testing.T, cfg Config, pipelined bool) *System {
	t.Helper()
	sys, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetSimWorkers(execWorkers(pipelined))
	return sys
}

// execWorkers is the SetSimWorkers value that forces an executor.
func execWorkers(pipelined bool) int {
	if pipelined {
		return 2
	}
	return 1
}

// requireSameState fails unless two systems agree on every observable —
// results, directory/network/DRAM counters, bank occupancy and profiler
// state.
func requireSameState(t *testing.T, label string, seq, par *System) {
	t.Helper()
	if ds, dp := digest(seq, set1Names), digest(par, set1Names); ds != dp {
		t.Fatalf("%s: state diverged\nsequential: %+v\npipelined:  %+v", label, ds, dp)
	}
	for c := 0; c < nuca.NumCores; c++ {
		hs, hp := seq.profs[c].Histogram(), par.profs[c].Histogram()
		if len(hs) != len(hp) {
			t.Fatalf("%s core %d: profiler histogram lengths differ", label, c)
		}
		for j := range hs {
			if hs[j] != hp[j] {
				t.Fatalf("%s core %d: profiler histograms diverge at depth %d: %d vs %d",
					label, c, j, hs[j], hp[j])
			}
		}
	}
}

// TestParallelOracle steps a sequential and a pipelined system through the
// same campaign chunk by chunk and requires every observable to match
// after every chunk. Chunked Run calls also exercise the trace batches a
// stopped pipeline leaves queued for the next Run.
func TestParallelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	seq, par := newExecSystem(t, cfg, false), newExecSystem(t, cfg, true)
	const chunk = 60_000
	for i := 1; i <= 6; i++ {
		budget := uint64(i * chunk)
		if err := seq.Run(budget); err != nil {
			t.Fatal(err)
		}
		if err := par.Run(budget); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("chunk %d", i), seq, par)
	}
	if seq.Epochs() < 3 {
		t.Fatalf("oracle ran only %d epochs; raise the budget so repartition barriers are exercised", seq.Epochs())
	}
}

// TestPipelinedMatchesSequential pins byte-level result equality between
// the sequential loop, the forced pipeline and the host default over the
// warm-up, stats reset and measured phase every campaign runs.
func TestPipelinedMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	run := func(workers int) Result {
		sys, err := New(cfg, core.NewBankAwarePolicy(), parallelTestSpecs(t))
		if err != nil {
			t.Fatal(err)
		}
		sys.SetSimWorkers(workers)
		if err := sys.Run(200_000); err != nil {
			t.Fatal(err)
		}
		sys.ResetStats()
		if err := sys.Run(300_000); err != nil {
			t.Fatal(err)
		}
		return sys.Result(set1Names)
	}
	want := run(1)
	for _, w := range []int{2, 0} {
		if got := run(w); got != want {
			t.Fatalf("simWorkers=%d diverged from sequential:\nwant %+v\ngot  %+v", w, got, want)
		}
	}
}

// TestPipelineModeSwitch flips a system pipelined → sequential → pipelined
// → sequential across Run calls, against a sequential reference on the
// identical chunk schedule (chunk boundaries themselves affect the
// min-clock commit order, so the reference must share them). Trace
// batches a pipelined Run leaves queued must be consumed first by the next
// Run in either mode, keeping the streams seamless.
func TestPipelineModeSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("detailed simulation in -short mode")
	}
	cfg := parallelTestConfig()
	ref, mixed := newExecSystem(t, cfg, false), newExecSystem(t, cfg, false)
	for i, pipelined := range []bool{true, false, true, false} {
		budget := uint64(60_000 * (i + 1))
		if err := ref.Run(budget); err != nil {
			t.Fatal(err)
		}
		mixed.SetSimWorkers(execWorkers(pipelined))
		if err := mixed.Run(budget); err != nil {
			t.Fatal(err)
		}
		requireSameState(t, fmt.Sprintf("chunk %d (pipelined=%v)", i, pipelined), ref, mixed)
	}
}

// heapGrowth reports how much live heap building sys and running it to
// instr instructions per core retains, measured after a full GC.
func heapGrowth(t *testing.T, pipelined bool, instr uint64) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sys := newExecSystem(t, parallelTestConfig(), pipelined)
	if err := sys.Run(instr); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sys)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestPipelineRetainsBoundedHeap: a pipelined System may retain only its
// fixed buffer pool beyond what the sequential loop retains, however long
// the Run. Unconsumed prefetched batches must stay in the pool, not pile
// up in per-core queues that grow with the run length.
func TestPipelineRetainsBoundedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("long detailed simulation in -short mode")
	}
	const instr = 4_000_000
	seq := heapGrowth(t, false, instr)
	par := heapGrowth(t, true, instr)
	t.Logf("retained heap after Run(%d): sequential %.2f MB, pipelined %.2f MB", instr, float64(seq)/1e6, float64(par)/1e6)
	if par > seq+1_500_000 {
		t.Fatalf("pipelined System retains %.2f MB, more than 1.5 MB over the sequential %.2f MB",
			float64(par)/1e6, float64(seq)/1e6)
	}
}

// poolBuffers lists the backing arrays of every trace batch and profiler
// buffer a stopped pipeline holds, leaving each queue in its order.
func poolBuffers(p *pipeline) map[uintptr]bool {
	bufs := map[uintptr]bool{}
	for c := 0; c < nuca.NumCores; c++ {
		for _, ch := range []chan []trace.Event{p.full[c], p.free[c]} {
			for n := len(ch); n > 0; n-- {
				b := <-ch
				bufs[uintptr(unsafe.Pointer(unsafe.SliceData(b)))] = true
				ch <- b
			}
		}
		if b := p.cur[c]; b != nil {
			bufs[uintptr(unsafe.Pointer(unsafe.SliceData(b)))] = true
		}
		for n := len(p.spare[c]); n > 0; n-- {
			b := <-p.spare[c]
			bufs[uintptr(unsafe.Pointer(unsafe.SliceData(b)))] = true
			p.spare[c] <- b
		}
	}
	return bufs
}

// TestPipelinePoolIsReused: the first pipelined Run builds the buffer pool
// and later Runs — pipelined or sequential — circulate exactly those
// buffers, allocating no trace batch or profiler buffer of their own.
func TestPipelinePoolIsReused(t *testing.T) {
	sys := newExecSystem(t, parallelTestConfig(), true)
	if err := sys.Run(20_000); err != nil {
		t.Fatal(err)
	}
	p := sys.pipe
	want := poolBuffers(p)
	if n := len(want); n != 2*poolDepth*nuca.NumCores {
		t.Fatalf("pool holds %d buffers, want %d", n, 2*poolDepth*nuca.NumCores)
	}
	for i, pipelined := range []bool{true, false, true} {
		sys.SetSimWorkers(execWorkers(pipelined))
		if err := sys.Run(uint64(i+2) * 20_000); err != nil {
			t.Fatal(err)
		}
		if sys.pipe != p {
			t.Fatalf("run %d: the pipeline was rebuilt", i)
		}
		got := poolBuffers(p)
		if len(got) != len(want) {
			t.Fatalf("run %d: pool holds %d buffers, want %d", i, len(got), len(want))
		}
		for b := range got {
			if !want[b] {
				t.Fatalf("run %d: a buffer outside the pool entered circulation", i)
			}
		}
	}
	const poolBytes = nuca.NumCores * poolDepth * batchLen * (unsafe.Sizeof(trace.Event{}) + unsafe.Sizeof(trace.Addr(0)))
	if poolBytes > 256<<10 {
		t.Fatalf("buffer pool is %d bytes per System, over 256 KiB", poolBytes)
	}
}

// failingStream panics once it has delivered left events.
type failingStream struct {
	trace.Stream
	left int
}

func (f *failingStream) Next() trace.Event {
	if f.left == 0 {
		panic("stream exhausted")
	}
	f.left--
	return f.Stream.Next()
}

// TestPipelineReraisesStreamPanic: a stream that panics on a prefetch
// goroutine must surface as a panic of Run on the caller's goroutine, as
// in the sequential loop, so callers such as the campaign runner can
// recover it; Run must not hang or take the process down.
func TestPipelineReraisesStreamPanic(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		streams := make([]trace.Stream, nuca.NumCores)
		for c, spec := range parallelTestSpecs(t) {
			streams[c] = trace.MustGenerator(spec, statsRNG(uint64(c)),
				trace.GeneratorConfig{BlocksPerWay: 128, Base: trace.Addr(uint64(c+1) << 40)})
		}
		streams[3] = &failingStream{Stream: streams[3], left: 5_000}
		sys, err := NewWithStreams(parallelTestConfig(), core.NewBankAwarePolicy(), streams)
		if err != nil {
			t.Fatal(err)
		}
		sys.SetSimWorkers(execWorkers(pipelined))
		got := func() (r any) {
			defer func() { r = recover() }()
			_ = sys.Run(100_000)
			return nil
		}()
		if got != "stream exhausted" {
			t.Fatalf("pipelined=%v: Run recovered %v, want the stream's panic", pipelined, got)
		}
	}
}

// FuzzParallelExecutorOracle is the differential oracle in fuzz form: an
// arbitrary schedule of pipelined and sequential Runs (bit i of modes
// pipelines chunk i) over an arbitrary chunked budget must leave the
// system in exactly the state of a sequential system driven through the
// same chunks. Chunk boundaries stop and restart the pipeline, so the
// fuzzer also explores the hand-off of queued trace batches between Runs.
func FuzzParallelExecutorOracle(f *testing.F) {
	f.Add(uint8(0b0101), uint8(3), uint16(10_000))
	f.Add(uint8(0b0011), uint8(1), uint16(18_000))
	f.Add(uint8(0b1101), uint8(3), uint16(3_000))
	f.Fuzz(func(t *testing.T, modes, chunks uint8, chunkInstr uint16) {
		n := int(chunks%4) + 1
		step := uint64(chunkInstr)%20_000 + 2_000
		cfg := parallelTestConfig()
		cfg.EpochCycles = 40_000
		seq, par := newExecSystem(t, cfg, false), newExecSystem(t, cfg, false)
		for i := 1; i <= n; i++ {
			pipelined := modes>>(i-1)&1 == 1
			budget := uint64(i) * step
			if err := seq.Run(budget); err != nil {
				t.Fatal(err)
			}
			par.SetSimWorkers(execWorkers(pipelined))
			if err := par.Run(budget); err != nil {
				t.Fatal(err)
			}
			if ds, dp := digest(seq, set1Names), digest(par, set1Names); ds != dp {
				t.Fatalf("modes=%04b chunk %d/%d (step %d): state diverged\nsequential: %+v\nmixed:      %+v",
					modes, i, n, step, ds, dp)
			}
		}
	})
}

// TestHashBankDistribution checks the static bank hash spreads a sequential
// block sweep evenly for every bank count the simulator uses (16 healthy,
// fewer under bank failures): a chi-squared statistic across banks must stay
// far below the divergence a biased mix would produce.
func TestHashBankDistribution(t *testing.T) {
	const blocks = 1 << 16
	for _, n := range []int{2, 3, 5, 7, 8, 11, 13, 15, 16} {
		counts := make([]int, n)
		for i := 0; i < blocks; i++ {
			addr := trace.Addr(uint64(i) << trace.BlockBits)
			b := hashBank(addr, n)
			if b < 0 || b >= n {
				t.Fatalf("n=%d: hashBank returned %d out of range", n, b)
			}
			counts[b]++
		}
		expected := float64(blocks) / float64(n)
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		// 99.9th percentile of chi-squared with n-1 <= 15 degrees of freedom
		// is ~37.7; a sequential sweep through a biased hash blows far past
		// that (an identity mapping scores ~blocks). Use a generous fixed
		// bound that still catches any structural bias.
		if chi2 > 60 {
			t.Fatalf("n=%d: chi-squared %.1f over %d banks (counts %v) — hash is biased", n, chi2, n, counts)
		}
		// No bank may deviate more than 10%% from the fair share.
		for b, c := range counts {
			if math.Abs(float64(c)-expected) > 0.10*expected {
				t.Fatalf("n=%d: bank %d holds %d blocks, fair share %.0f", n, b, c, expected)
			}
		}
	}
}
