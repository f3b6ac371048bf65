// Intra-simulation parallelism: one simulation spread over several OS
// threads with byte-identical results.
//
// The sequential scheduler's shared-state mutations — bank occupancy
// timelines, DRAM and link queues, directory transitions, L1
// back-invalidations — are order-sensitive: the min-local-clock schedule
// decides which core touches each resource next, and that order feeds back
// into the clocks that drive the schedule. Sharding those mutations across
// threads would need speculative execution with rollback to preserve the
// observable event order. What *is* order-free is everything per-core on
// either side of the shared state:
//
//   - Trace generation (trace.Stream.Next) has zero feedback from the
//     simulation — a core's access sequence is a pure function of the spec
//     and seed — so it can run ahead on another thread.
//   - MSA profiler application (msa.Profiler.Access) is per-core state
//     that nothing reads between repartition boundaries, so it can lag
//     behind on another thread.
//
// The pipeline below exploits exactly those two ends: each core has one
// prefetch goroutine generating its trace in batches ahead of time and one
// apply goroutine replaying its profiler accesses behind time, while the
// commit thread in between executes the unchanged sequential schedule over
// all shared state. Every value the commit thread consumes is identical to
// what the sequential loop would have computed, and every profiler read
// happens behind a flush barrier, so results and reports are byte-identical
// to the sequential loop. See DESIGN.md, "Performance model".
package sim

import (
	"runtime"
	"sync"

	"bankaware/internal/msa"
	"bankaware/internal/nuca"
	"bankaware/internal/trace"
)

// SetSimWorkers picks the executor of the next Run. 0 (the default)
// pipelines whenever runtime.GOMAXPROCS(0) > 1 at Run start and runs the
// sequential loop otherwise; 1 forces the sequential loop, the reference
// the tests compare against; any n >= 2 forces the pipeline, whose shape
// does not depend on n. Results and run reports are byte-identical for
// every value.
func (s *System) SetSimWorkers(n int) { s.simWorkers = n }

// pipelined reports whether the next Run uses the pipeline.
func (s *System) pipelined() bool {
	switch {
	case s.simWorkers == 1:
		return false
	case s.simWorkers >= 2:
		return true
	}
	return runtime.GOMAXPROCS(0) > 1
}

// One channel operation per batchLen events keeps the per-access overhead
// to a fraction of a nanosecond; poolDepth batches per core let the
// prefetcher fill one while the commit thread consumes another and a third
// waits. The whole pool — poolDepth trace batches and poolDepth profiler
// buffers per core, about 192 KiB — is allocated once per System.
const (
	batchLen  = 256
	poolDepth = 3
)

// pipeline is the System's parallel executor. Per core, a fixed pool of
// trace batches circulates prefetcher → full → commit thread → free →
// prefetcher, and a fixed pool of profiler buffers circulates commit
// thread → apply → applier → spare → commit thread. Every channel holds
// the whole pool, so no send ever blocks. The pool outlives each Run:
// batches still queued in full when a Run ends are consumed first by the
// next one, pipelined or sequential. All fields outside the channels are
// owned by the commit thread.
type pipeline struct {
	full, free   [nuca.NumCores]chan []trace.Event
	apply, spare [nuca.NumCores]chan []trace.Addr

	// The batch each core is consuming and its read position, and the
	// profiler buffer being filled (nil when the core holds none).
	cur [nuca.NumCores][]trace.Event
	pos [nuca.NumCores]int
	pb  [nuca.NumCores][]trace.Addr

	// A prefetcher or applier that panics records the value here and
	// sends a nil buffer on the channel the commit thread reads from it
	// next, which re-raises the panic on the Run's own goroutine, as the
	// sequential loop would.
	genPanic, profPanic [nuca.NumCores]any
	broken              bool

	running bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

func newPipeline() *pipeline {
	p := &pipeline{}
	events := make([]trace.Event, nuca.NumCores*poolDepth*batchLen)
	addrs := make([]trace.Addr, nuca.NumCores*poolDepth*batchLen)
	for c := range p.full {
		p.full[c] = make(chan []trace.Event, poolDepth)
		p.free[c] = make(chan []trace.Event, poolDepth)
		p.apply[c] = make(chan []trace.Addr, poolDepth)
		p.spare[c] = make(chan []trace.Addr, poolDepth)
		for i := 0; i < poolDepth; i++ {
			lo := (c*poolDepth + i) * batchLen
			p.free[c] <- events[lo : lo : lo+batchLen]
			p.spare[c] <- addrs[lo : lo : lo+batchLen]
		}
	}
	return p
}

// startPipeline launches one prefetcher and one applier per core, building
// the pool on the first pipelined Run.
func (s *System) startPipeline() {
	if s.pipe == nil {
		s.pipe = newPipeline()
	}
	p := s.pipe
	p.running = true
	p.stop = make(chan struct{})
	p.wg.Add(2 * nuca.NumCores)
	for c := 0; c < nuca.NumCores; c++ {
		go p.prefetch(s.streams[c], c)
		go p.applyProf(s.profs[c], c)
	}
}

// stopPipeline settles every queued profiler access and stops the
// goroutines, also when the Run is panicking. Filled trace batches stay
// queued for the next Run.
func (s *System) stopPipeline() {
	p := s.pipe
	defer func() {
		close(p.stop)
		p.wg.Wait()
		p.running = false
	}()
	if !p.broken {
		p.profBarrier()
	}
}

// rescue, deferred by a prefetcher or applier, records its panic in slot
// and sends the commit thread a nil buffer on wake. wake has room for it:
// the panicking goroutine holds one of the pool's buffers.
func rescue[T any](slot *any, wake chan<- []T) {
	if r := recover(); r != nil {
		*slot = r
		wake <- nil
	}
}

// rethrow re-raises a panic a prefetcher or applier recorded. The pool has
// lost a buffer, so the barrier is skipped from then on.
func (p *pipeline) rethrow(r any) {
	p.broken = true
	panic(r)
}

// prefetch fills core c's free batches from its stream until stopped.
func (p *pipeline) prefetch(stream trace.Stream, c int) {
	defer p.wg.Done()
	defer rescue(&p.genPanic[c], p.full[c])
	for {
		var b []trace.Event
		select {
		case b = <-p.free[c]:
		case <-p.stop:
			return
		}
		b = b[:batchLen]
		for i := range b {
			b[i] = stream.Next()
		}
		p.full[c] <- b
	}
}

// applyProf replays core c's profiler buffers until stopped.
func (p *pipeline) applyProf(prof *msa.Profiler, c int) {
	defer p.wg.Done()
	defer rescue(&p.profPanic[c], p.spare[c])
	for {
		select {
		case b := <-p.apply[c]:
			for _, a := range b {
				prof.Access(a)
			}
			p.spare[c] <- b[:0]
		case <-p.stop:
			return
		}
	}
}

// refill recycles core c's spent batch and installs the next queued one.
// A running pipeline waits for its prefetcher; a stopped one reports false
// once the queue is empty, and the caller reads the stream directly.
func (p *pipeline) refill(c int) bool {
	if b := p.cur[c]; b != nil {
		p.free[c] <- b[:0]
		p.cur[c] = nil
	}
	if p.running {
		p.cur[c] = <-p.full[c]
	} else {
		select {
		case p.cur[c] = <-p.full[c]:
		default:
			return false
		}
	}
	if p.cur[c] == nil {
		p.rethrow(p.genPanic[c])
	}
	p.pos[c] = 0
	return true
}

// profAccess queues one profiler access for core c's applier.
func (p *pipeline) profAccess(c int, addr trace.Addr) {
	b := p.pb[c]
	if b == nil {
		if b = <-p.spare[c]; b == nil {
			p.rethrow(p.profPanic[c])
		}
	}
	b = append(b, addr)
	if len(b) == batchLen {
		p.apply[c] <- b
		b = nil
	}
	p.pb[c] = b
}

// profBarrier flushes each core's partial profiler buffer and waits until
// its applier has handed back every buffer, establishing the
// happens-before edge the commit thread needs before reading profiler
// state (repartition's curve extraction and decay).
func (p *pipeline) profBarrier() {
	for c := range p.pb {
		if b := p.pb[c]; b != nil {
			p.apply[c] <- b
			p.pb[c] = nil
		}
	}
	var held [poolDepth][]trace.Addr
	for c := range p.spare {
		for i := range held {
			if held[i] = <-p.spare[c]; held[i] == nil {
				p.rethrow(p.profPanic[c])
			}
		}
		for _, b := range held {
			p.spare[c] <- b
		}
	}
}

// profBarrier is the System-level entry: a no-op unless a pipelined Run is
// active.
func (s *System) profBarrier() {
	if p := s.pipe; p != nil && p.running {
		p.profBarrier()
	}
}

// nextEvent returns core c's next access: from the pipeline's queued
// batches while any remain, otherwise straight from the stream.
func (s *System) nextEvent(c int) trace.Event {
	if p := s.pipe; p != nil && (p.pos[c] < len(p.cur[c]) || p.refill(c)) {
		ev := p.cur[c][p.pos[c]]
		p.pos[c]++
		return ev
	}
	return s.streams[c].Next()
}

// profAccess records one L2 access with core c's MSA profiler: through the
// pipeline during a pipelined Run, directly otherwise.
func (s *System) profAccess(c int, addr trace.Addr) {
	if p := s.pipe; p != nil && p.running {
		p.profAccess(c, addr)
		return
	}
	s.profs[c].Access(addr)
}
