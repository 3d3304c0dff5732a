package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/rangesvc"
	"sci/internal/scinet"
	"sci/internal/server"
)

// rig is one workload's system under test plus the benchmark's handles on
// it: the seeded sources and how to publish them, the stable subscribers,
// and the workload's control-plane operations.
type rig struct {
	transport string // "memory" (in-process) or "tcp" (loopback)
	net       *netWrap
	tr        *tracer

	ranges  []*server.Range
	fabrics []*scinet.Fabric
	host    *rangesvc.Host
	conns   []*rangesvc.Connector // long-lived connectors (counters)

	streams []*stream
	publish func(s int, batch []event.Event) error
	sinks   []*sink
	// subsOf counts the stable subscribers expecting each stream's events.
	subsOf map[byte]int
	// satStreams are published round robin in the saturating phase, with no
	// stable subscriber more than window events behind.
	satStreams []int
	window     uint64

	// ctlEvery paces the control client; ops is its seeded schedule.
	ctlEvery time.Duration
	ops      []ctlOp
	attach   func(op ctlOp) (time.Duration, error)
	query    func(op ctlOp) (time.Duration, error)
	probes   []*probe
	probeMu  sync.Mutex

	delivered atomic.Uint64 // unique stable deliveries, all sinks
	// waiting is set while the closed loop waits for room; a sink whose lag
	// falls to half the window then signals refill.
	waiting atomic.Bool
	refill  chan struct{}
	closers []func()
}

// ctlOp is one scheduled control-plane operation with its seeded targets.
// jitter offsets it within its slot, so ops do not lock to a fixed phase of
// the publishing schedule (an attach cycle's first delivery waits for the
// next batch).
type ctlOp struct {
	attach bool
	a, b   int
	jitter time.Duration
}

// buildSchedule draws n control ops, one per slot of every: one attach
// cycle per attachEvery ops, queries otherwise, with targets a in [0,na)
// and b in [0,nb).
func buildSchedule(rnd *rand.Rand, n, attachEvery, na, nb int, every time.Duration) []ctlOp {
	ops := make([]ctlOp, n)
	for i := range ops {
		ops[i] = ctlOp{attach: i%attachEvery == attachEvery-1, a: rnd.Intn(na), b: rnd.Intn(nb),
			jitter: time.Duration(rnd.Int63n(int64(every)))}
	}
	return ops
}

// seededID derives a GUID of the given kind from the seed and an index.
func seededID(kind guid.Kind, seed int64, i int) guid.GUID {
	var g guid.GUID
	binary.BigEndian.PutUint64(g[0:8], splitmix64(uint64(seed)^0x5ca1ab1e))
	binary.BigEndian.PutUint64(g[8:16], splitmix64(uint64(seed)+uint64(i)*0x9e37))
	g[0] = byte(kind)
	return g
}

func (r *rig) addSink(streams ...*stream) *sink {
	k := newSink(streams...)
	k.total = &r.delivered
	if r.refill == nil {
		r.refill = make(chan struct{}, 1)
	}
	k.waiting, k.refill, k.low = &r.waiting, r.refill, r.window/2
	r.sinks = append(r.sinks, k)
	for _, s := range streams {
		r.subsOf[s.tag]++
	}
	return k
}

func (r *rig) newProbe() *probe {
	m := make(map[byte]*stream, len(r.streams))
	for _, s := range r.streams {
		m[s.tag] = s
	}
	p := newProbe(m)
	r.probeMu.Lock()
	r.probes = append(r.probes, p)
	r.probeMu.Unlock()
	return p
}

// expected is the number of stable deliveries owed for everything
// published so far.
func (r *rig) expected() uint64 {
	var n uint64
	for _, s := range r.streams {
		n += s.published.Load() * uint64(r.subsOf[s.tag])
	}
	return n
}

// pub publishes one stamped batch of stream s inside a span.
func (r *rig) pub(s int, batch []event.Event) error {
	st := r.streams[s]
	tok := r.tr.begin("server.publish", batchID(st.tag, batch[0].Seq))
	err := r.publish(s, batch)
	r.tr.end(tok)
	if err == nil {
		st.published.Add(uint64(len(batch)))
	}
	return err
}

// awaitDrain waits until every owed stable delivery has arrived.
func (r *rig) awaitDrain(limit time.Duration) bool {
	deadline := time.Now().Add(limit)
	for r.delivered.Load() < r.expected() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// close tears the rig down: the Range Service host first, since its Close
// flushes pending coalescers while the connectors are still attached, then
// everything else in reverse construction order.
func (r *rig) close() {
	if r.host != nil {
		_ = r.host.Close()
	}
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// warmUp publishes a fixed amount of work through the rig and waits for
// it, then runs a short paced phase so the control client's first ops
// (attach cycles need live traffic) are paid for too: lazy allocation in
// coalescers, dictionaries and connections happens in set-up, not in the
// timed phases. It returns the next control op to run.
func (r *rig) warmUp(batches int) (int, error) {
	for i := 0; i < batches; i++ {
		for s := range r.streams {
			if err := r.pub(s, r.streams[s].take(time.Now())); err != nil {
				return 0, fmt.Errorf("warm-up publish: %w", err)
			}
			r.awaitRoom()
		}
	}
	if !r.awaitDrain(10 * time.Second) {
		return 0, errors.New("warm-up deliveries did not arrive")
	}
	opIdx := 0
	pr := r.paced(warmPaced, &opIdx)
	if len(pr.errs) > 0 || !pr.drained {
		return 0, fmt.Errorf("warm-up paced phase: drained %v, errors %v", pr.drained, pr.errs)
	}
	return opIdx, nil
}

func (r *rig) runOp(op ctlOp) (time.Duration, error) {
	if op.attach {
		return r.attach(op)
	}
	return r.query(op)
}

// window is one slice of a paced phase. The end-to-end figures are
// medians over windows, so a burst of interference on the shared machine
// moves one window, not the run.
type window struct {
	cpuPerDelivery float64 // µs
	p50, p90, tail float64 // ms
	samples        int
	steal          float64 // share of the machine's processor time stolen
	// The control ops that finished in the window: queryLat.ds[q0:q1]
	// and attachLat.ds[a0:a1].
	q0, q1, a0, a1 int
}

// calmSteal is the largest share of the machine's processor time the
// hypervisor may steal in a calm window: two clock ticks of a 250 ms
// window on two processors.
const calmSteal = 0.04

// pacedResult is what one paced phase measured.
type pacedResult struct {
	from, to   time.Time
	secs       float64
	published  uint64
	owed       uint64 // stable deliveries owed for the phase
	got        uint64 // unique stable deliveries that arrived
	drained    bool
	windows    []window
	lat        *hist // the whole phase
	lateMax    time.Duration
	cpu        time.Duration
	alloc      uint64
	rt0, rt1   runtimeSnap
	heapPeakMB float64

	queries, queryFail   int
	attaches, attachFail int
	queryLat, attachLat  durations
	errs                 []string
}

// Window spans. A paced window is short enough that most hold no garbage
// collection, so the median window's tail is not decided by where the
// collections happened to fall; the whole-phase figures are reported
// beside it.
const (
	windowLen    = 250 * time.Millisecond
	satWindowLen = 500 * time.Millisecond
)

// paced runs the open-loop phase: every stream publishes its batches at
// their due times (one generator goroutine; a late batch is published at
// once, never skipped) while the control client runs its schedule from
// opIdx on a second goroutine. Latency is timed from each batch's due time.
func (r *rig) paced(d time.Duration, opIdx *int) *pacedResult {
	res := &pacedResult{lat: newHist()}
	winHist := newHist()
	for _, s := range r.streams {
		s.pacedLo.Store(s.next)
		s.pacedHi.Store(math.MaxUint64)
	}
	for _, k := range r.sinks {
		k.drainLat(winHist)
	}
	owed0, got0 := r.expected(), r.delivered.Load()
	hp := startHeapPeak()
	res.rt0 = readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)

	winCPU, winGot, winEnd, winStat := cpu0, got0, start.Add(windowLen), readCPUStat()
	winQ, winA := 0, 0
	closeWindow := func() {
		winHist.reset()
		for _, k := range r.sinks {
			k.drainLat(winHist)
		}
		res.lat.merge(winHist)
		cpu, got, st := cpuTime(), r.delivered.Load(), readCPUStat()
		w := window{samples: winHist.n, p50: winHist.quantile(0.5), p90: winHist.quantile(0.9),
			tail: winHist.quantile(tailQuantile(winHist.n, 0.99)), steal: stealShare(winStat, st),
			q0: winQ, q1: res.queryLat.len(), a0: winA, a1: res.attachLat.len()}
		if got > winGot {
			w.cpuPerDelivery = float64(cpu-winCPU) / float64(time.Microsecond) / float64(got-winGot)
		}
		res.windows = append(res.windows, w)
		winCPU, winGot, winEnd, winStat = cpu, got, winEnd.Add(windowLen), st
		winQ, winA = w.q1, w.a1
	}

	stop := make(chan struct{})
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		slot := start
		for *opIdx < len(r.ops) {
			op := r.ops[*opIdx]
			select {
			case <-stop:
				return
			case <-time.After(time.Until(slot.Add(op.jitter))):
			}
			*opIdx++
			lat, err := r.runOp(op)
			if op.attach {
				res.attaches++
			} else {
				res.queries++
			}
			switch {
			case err != nil:
				if op.attach {
					res.attachFail++
				} else {
					res.queryFail++
				}
				if len(res.errs) < 8 {
					res.errs = append(res.errs, err.Error())
				}
			case op.attach:
				res.attachLat.add(lat)
			default:
				res.queryLat.add(lat)
			}
			// An op that overran its slot delays the schedule instead of
			// bunching the ops behind it.
			if slot = slot.Add(r.ctlEvery); slot.Before(time.Now()) {
				slot = time.Now()
			}
		}
	}()

	dues := make([]time.Time, len(r.streams))
	steps := make([]time.Duration, len(r.streams))
	for i, s := range r.streams {
		dues[i] = start
		steps[i] = time.Duration(float64(s.batch) / s.rate * float64(time.Second))
		if s.rate == 0 { // saturating-phase stream only
			dues[i] = end.Add(time.Hour)
		}
	}
	var pubErr error
	for pubErr == nil {
		i := 0
		for j := range dues {
			if dues[j].Before(dues[i]) {
				i = j
			}
		}
		due := dues[i]
		if !due.Before(end) {
			// Traffic goes on until the control client's op in flight has
			// finished: an attach cycle waits for a delivery.
			if !closed(stop) {
				close(stop)
			}
			if closed(ctlDone) {
				break
			}
		}
		if !due.Before(winEnd) {
			closeWindow()
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if late := time.Since(due); late > res.lateMax {
			res.lateMax = late
		}
		s := r.streams[i]
		pubErr = r.pub(i, s.take(due))
		res.published += uint64(s.batch)
		dues[i] = due.Add(steps[i])
	}
	if pubErr != nil {
		res.errs = append(res.errs, "paced publish: "+pubErr.Error())
	}
	if !closed(stop) {
		close(stop)
	}
	<-ctlDone
	for _, s := range r.streams {
		s.pacedHi.Store(s.next)
	}
	res.from, res.to = start, time.Now()
	res.secs = res.to.Sub(start).Seconds()
	res.drained = r.awaitDrain(5 * time.Second)
	closeWindow()
	res.cpu = cpuTime() - cpu0
	res.rt1 = readRuntime()
	res.heapPeakMB = hp.end()
	res.alloc = res.rt1.totalAlloc - res.rt0.totalAlloc
	res.owed = r.expected() - owed0
	res.got = r.delivered.Load() - got0
	return res
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// windowsMedian is the median over windows of one figure.
func windowsMedian(ws []window, f func(window) float64) float64 {
	xs := make([]float64, 0, len(ws))
	for _, w := range ws {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// calm returns the windows in which the hypervisor stole at most
// calmSteal of the machine's processor time, or every window if fewer
// than half were calm. Stolen time stalls the whole pipeline and inflates
// every wall-clock figure of its window by an amount the program does not
// decide, while processor time as the program uses it is unaffected.
func (pr *pacedResult) calm() []window {
	var ws []window
	for _, w := range pr.windows {
		if w.steal <= calmSteal {
			ws = append(ws, w)
		}
	}
	if 2*len(ws) < len(pr.windows) {
		return pr.windows
	}
	return ws
}

// opsIn returns the query and attach timings of the control ops that
// finished in the given windows.
func (pr *pacedResult) opsIn(ws []window) (queries, attaches *durations) {
	queries, attaches = &durations{}, &durations{}
	pr.queryLat.mu.Lock()
	pr.attachLat.mu.Lock()
	for _, w := range ws {
		queries.ds = append(queries.ds, pr.queryLat.ds[w.q0:w.q1]...)
		attaches.ds = append(attaches.ds, pr.attachLat.ds[w.a0:w.a1]...)
	}
	pr.attachLat.mu.Unlock()
	pr.queryLat.mu.Unlock()
	return queries, attaches
}

// saturate runs the closed loop: the saturating streams publish as fast as
// the window allows (no stable subscriber more than r.window events
// behind) for d, and it returns each window after the first, which absorbs
// the switch from the paced phase.
func (r *rig) saturate(d time.Duration) ([]satWindow, error) {
	var eps []satWindow
	start := time.Now()
	end := start.Add(d)
	winStart, winGot, winStat := start, r.delivered.Load(), readCPUStat()
	for i := 0; ; i++ {
		now := time.Now()
		if now.Sub(winStart) >= satWindowLen {
			got, st := r.delivered.Load(), readCPUStat()
			if winStart != start {
				eps = append(eps, satWindow{from: winStart, to: now, eps: float64(got-winGot) / now.Sub(winStart).Seconds(),
					steal: stealShare(winStat, st)})
			}
			winStart, winGot, winStat = now, got, st
			if !now.Before(end) {
				break
			}
		}
		s := r.satStreams[i%len(r.satStreams)]
		if err := r.pub(s, r.streams[s].take(now)); err != nil {
			return eps, fmt.Errorf("saturating publish: %w", err)
		}
		r.awaitRoom()
	}
	if !r.awaitDrain(5 * time.Second) {
		return eps, errors.New("saturating phase did not drain")
	}
	return eps, nil
}

// satWindow is one window of the saturating phase and its delivery rate.
type satWindow struct {
	from, to time.Time
	eps      float64
	steal    float64 // share of the machine's processor time stolen
}

// awaitRoom blocks the closed loop while a stable subscriber is more than
// r.window events behind, until every one is back within half of it: the
// publisher refills in bursts of half a window instead of waking per batch.
func (r *rig) awaitRoom() {
	if r.maxLag() <= r.window {
		return
	}
	for r.maxLag() > r.window/2 {
		r.waiting.Store(true)
		if r.maxLag() > r.window/2 {
			select {
			case <-r.refill:
			case <-time.After(5 * time.Millisecond):
			}
		}
		r.waiting.Store(false)
	}
}

// maxLag is the largest number of events any stable subscriber is owed.
func (r *rig) maxLag() uint64 {
	var lag uint64
	for _, k := range r.sinks {
		if l := k.owed() - k.count.Load(); l > lag {
			lag = l
		}
	}
	return lag
}

// oracle is the run's correctness verdict.
type oracle struct {
	lost, dups, bad, late, probeBad uint64
	conns                           map[string]int
	leak                            string
	notes                           []string
}

func (o *oracle) failed() uint64 {
	n := o.lost + o.dups + o.bad + o.late + o.probeBad
	if o.leak != "" {
		n++
	}
	return n
}

// check audits every stable subscriber and churned probe.
func (r *rig) check(o *oracle) {
	for _, k := range r.sinks {
		o.lost += k.missing()
		k.mu.Lock()
		o.dups += k.dups
		o.bad += k.bad
		k.mu.Unlock()
	}
	r.probeMu.Lock()
	for _, p := range r.probes {
		o.late += p.late.Load()
		o.probeBad += p.bad.Load()
	}
	r.probeMu.Unlock()
	if r.transport == "tcp" {
		_, codecs := r.net.wireTotals()
		o.conns = codecs
		for c, n := range codecs {
			if c != "binary" && n > 0 {
				o.notes = append(o.notes, fmt.Sprintf("%d connection(s) negotiated %q, not binary", n, c))
				o.bad += uint64(n)
			}
		}
		if codecs["binary"] == 0 {
			o.notes = append(o.notes, "no binary connection negotiated")
			o.bad++
		}
	}
}
