package sim

import (
	"fmt"

	"bankaware/internal/faults"
	"bankaware/internal/metrics"
	"bankaware/internal/nuca"
)

// missLatencyBounds bucket the end-to-end L2 miss latency (issue to fill)
// around the 260-cycle DRAM access plus network and queueing.
var missLatencyBounds = []float64{300, 400, 600, 1000, 2000, 5000}

// EnableMetrics attaches the observation layer: every component registers
// its counters into the recorder's registry, the L2 miss-latency histogram
// starts filling, and from now on each epoch boundary closes a time-series
// window and logs the policy's allocation changes and the faults that
// opened. Passing nil creates a fresh recorder. Call it once, right after
// construction; it returns the recorder in use.
func (s *System) EnableMetrics(rec *metrics.Recorder) *metrics.Recorder {
	rec = s.Controller.EnableMetrics(rec)
	reg := rec.Registry
	for c := 0; c < nuca.NumCores; c++ {
		s.cores[c].RegisterMetrics(reg, fmt.Sprintf("cpu.core%d", c))
		s.l1s[c].RegisterMetrics(reg, fmt.Sprintf("l1.core%d", c))
		s.profs[c].RegisterMetrics(reg, fmt.Sprintf("msa.core%d", c))
	}
	for b := range s.banks {
		s.banks[b].RegisterMetrics(reg, fmt.Sprintf("l2.bank%d", b))
	}
	s.dram.RegisterMetrics(reg, "dram")
	s.net.RegisterMetrics(reg, "net")
	s.dir.RegisterMetrics(reg, "coherence")
	s.missLat = reg.Histogram("l2.miss_latency", missLatencyBounds)
	s.recordFaultEvents(s.cfg.Faults.ActiveAt(s.epochs-1), 0, s.maxNow())
	return rec
}

// recordFaultEvents logs injected faults into the recorder under the given
// epoch-window index (0 when re-logging the active set at the start of a
// measurement window).
func (s *System) recordFaultEvents(evs []faults.Event, epoch int, cycle int64) {
	for _, ev := range evs {
		s.rec.Faults = append(s.rec.Faults, metrics.FaultEvent{
			Epoch:       epoch,
			Cycle:       cycle,
			Kind:        string(ev.Kind),
			Bank:        ev.Bank,
			ExtraCycles: ev.ExtraCycles,
			Amplitude:   ev.Amplitude,
			Duration:    ev.Duration,
		})
	}
}
