package telemetry

import (
	"sync"
	"time"
)

// flightRecorder is the slow-walk flight recorder: a fixed-size
// drop-oldest ring that retains only *qualifying* completed traces —
// those whose latency exceeded the per-op slow threshold, or that took
// an anomalous path (the ref-walk fallback, a coalesce wait past the
// threshold). Where the sampled trace ring answers "what do walks look
// like", the flight recorder answers "what did the bad ones look like"
// long after they scrolled out of the sample.
type flightRecorder struct {
	ring *traceRing

	mu        sync.Mutex
	defaultNS int64            // slow threshold for ops without an override
	perOp     map[string]int64 // per-op overrides, keyed by WalkTrace.Op ("" = kernel walk)
}

// defaultSlowNS is the out-of-the-box slow threshold: 1ms is an eternity
// for a warm walk (ns scale) yet short enough to catch real stalls on
// wire ops.
const defaultSlowNS = int64(time.Millisecond)

func newFlightRecorder(capacity int, slowNS int64) *flightRecorder {
	if slowNS <= 0 {
		slowNS = defaultSlowNS
	}
	return &flightRecorder{
		ring:      newTraceRing(capacity),
		defaultNS: slowNS,
		perOp:     make(map[string]int64),
	}
}

// threshold returns the slow threshold for op.
func (f *flightRecorder) threshold(op string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if ns, ok := f.perOp[op]; ok {
		return ns
	}
	return f.defaultNS
}

// setThreshold installs a per-op override; op "" changes the default.
func (f *flightRecorder) setThreshold(op string, ns int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if op == "" {
		f.defaultNS = ns
		return
	}
	f.perOp[op] = ns
}

// offer records tr if it qualifies. tr must already be immutable (the
// callers push the same pointer into the sampled ring).
func (f *flightRecorder) offer(tr *WalkTrace) {
	if tr.Anomaly == "" && tr.DurNS < f.threshold(tr.Op) {
		return
	}
	f.ring.push(tr)
}
