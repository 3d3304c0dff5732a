package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hist is a latency histogram with 1 µs buckets up to histSpan; rarer,
// larger values are kept exactly in an overflow list. A percentile read
// from it is exact to the microsecond.
type hist struct {
	counts []uint32
	over   []time.Duration
	n      int
}

const histSpan = 1 << 16 // µs: 65.5 ms of linear buckets

func newHist() *hist { return &hist{counts: make([]uint32, histSpan)} }

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := int(d / time.Microsecond)
	if us < histSpan {
		h.counts[us]++
	} else {
		h.over = append(h.over, d)
	}
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.over = h.over[:0]
	h.n = 0
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// quantile returns the q-quantile in milliseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := 0
	for us, c := range h.counts {
		seen += int(c)
		if seen >= rank {
			return (float64(us) + 0.5) / 1000
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return float64(h.over[rank-seen-1]) / float64(time.Millisecond)
}

// tailQuantile is the highest percentile with at least ten samples beyond
// it, capped at want: the widest tail the sample supports.
func tailQuantile(n int, want float64) float64 {
	if n <= 10 {
		return 0.5
	}
	q := 1 - 10/float64(n)
	if q > want {
		q = want
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// durations collects a small sample of timings (queries, attaches) and
// reads percentiles from it exactly.
type durations struct {
	mu sync.Mutex
	ds []time.Duration
}

func (d *durations) add(x time.Duration) {
	d.mu.Lock()
	d.ds = append(d.ds, x)
	d.mu.Unlock()
}

func (d *durations) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.ds)
}

// quantileMs returns the q-quantile in milliseconds, nearest rank.
func (d *durations) quantileMs(q float64) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d.ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1]) / float64(time.Millisecond)
}

func (d *durations) meanMs() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d.ds {
		sum += x
	}
	return float64(sum) / float64(len(d.ds)) / float64(time.Millisecond)
}

// cpuTime is the process's user+system CPU so far (the quantity getrusage
// reports, read from the nanosecond CPU clock: getrusage advances in
// scheduler ticks).
func cpuTime() time.Duration { return cpuClock(clockProcessCPU) }

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// refTask is a fixed piece of work of the kinds the pipeline does: copying,
// sorting, map lookups and number formatting over small buffers, plus
// random reads across a table far larger than the processor caches (the
// pipeline's live heap does not fit in them either, so contention for
// memory slows it too; the reads take about a third of the task's time,
// see LAYERS.md for how that share was chosen). Every buffer is
// built once and the table lives outside the Go heap, so the task
// allocates nothing, never pays for a collection the workload caused and
// does not change the workload's collection pacing. It uses only the
// standard library, so no change to the program under test can change it.
type refTask struct {
	ints, work []int
	m          map[uint64]uint64
	text       []byte
	table      []uint64 // refTableBytes, mapped outside the Go heap
}

const (
	refTableBytes = 64 << 20
	refTableReads = 2000
)

func newRefTask() (*refTask, error) {
	mem, err := syscall.Mmap(-1, 0, refTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	t := &refTask{ints: make([]int, 8192), work: make([]int, 8192), m: make(map[uint64]uint64, 4096),
		text:  make([]byte, 0, 16<<10),
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refTableBytes/8)}
	for i := range t.ints {
		t.ints[i] = int(splitmix64(uint64(i)) % 100000)
	}
	for i := uint64(0); i < 4096; i++ {
		t.m[splitmix64(i)] = i
	}
	for i := range t.table {
		t.table[i] = uint64(i)
	}
	return t, nil
}

// free unmaps the table.
func (t *refTask) free() {
	mem := unsafe.Slice((*byte)(unsafe.Pointer(&t.table[0])), refTableBytes)
	t.table = nil
	_ = syscall.Munmap(mem)
}

var refSink uint64

func (t *refTask) run() {
	copy(t.work, t.ints)
	sort.Ints(t.work)
	var sum uint64
	for i := uint64(0); i < 8192; i++ {
		sum += t.m[splitmix64(i%5000)]
	}
	t.text = t.text[:0]
	for i := 0; i < 600; i++ {
		t.text = strconv.AppendFloat(t.text, float64(i)*1.37, 'g', -1, 64)
	}
	mask := uint64(len(t.table) - 1)
	for i := uint64(0); i < refTableReads; i++ {
		sum += t.table[splitmix64(i+sum&1)&mask]
	}
	refSink = sum + uint64(len(t.text))
}

// refNominal is the reference task's CPU time at the speed the scaled
// metrics are expressed in: a fixed constant, of the order of the task's
// time on a 2-vCPU Xeon virtual machine.
const refNominal = time.Millisecond

// refEvery paces the speed probe: one reference task per interval costs
// about 1.5% of one processor.
const refEvery = 50 * time.Millisecond

// speedProbe runs the reference task once per refEvery on its own locked
// thread while the measured phases run, timing each run by that thread's
// CPU clock so that waiting for a processor does not count. The shared
// machine's speed drifts by tens of percent from minute to minute and the
// median task time tracks it. (Timed while the workload is idle instead,
// between phases, the task read up to 60% apart within one run: the
// collector and timers of a large idle fleet still run then.)
type speedProbe struct {
	stop    chan struct{}
	done    chan struct{}
	samples []refSample
}

// refSample is one timed run of the reference task.
type refSample struct {
	at time.Time
	ns float64
}

func startSpeedProbe() (*speedProbe, error) {
	task, err := newRefTask()
	if err != nil {
		return nil, err
	}
	p := &speedProbe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		defer task.free()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			at, t0 := time.Now(), cpuClock(clockThreadCPU)
			task.run()
			p.samples = append(p.samples, refSample{at: at, ns: float64(cpuClock(clockThreadCPU) - t0)})
		}
	}()
	return p, nil
}

// end stops the probe and returns the median task time and sample count.
func (p *speedProbe) end() (time.Duration, int) {
	close(p.stop)
	<-p.done
	return p.medianIn(time.Time{}, time.Now()), len(p.samples)
}

// medianIn is the median task time of the samples taken in [from, to), or
// 0 if there are none. Read it after end.
func (p *speedProbe) medianIn(from, to time.Time) time.Duration {
	var ns []float64
	for _, s := range p.samples {
		if !s.at.Before(from) && s.at.Before(to) {
			ns = append(ns, s.ns)
		}
	}
	return time.Duration(median(ns))
}

// runtimeSnap is the slice of runtime.MemStats the benchmark reads.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	goroutines int
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSnap{
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		pauseNs:    ms.PauseTotalNs,
		goroutines: runtime.NumGoroutine(),
	}
}

// heapPeak samples the live heap every few milliseconds until stopped and
// keeps the largest value seen.
type heapPeak struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.peak {
				h.peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak in MiB.
func (h *heapPeak) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// cpuStat is the machine's processor time so far, from /proc/stat, in
// clock ticks: all of it, and the part stolen, when the hypervisor ran
// something else while this virtual machine had work to run.
type cpuStat struct{ total, steal uint64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		n, _ := strconv.ParseUint(v, 10, 64)
		st.total += n
		if i == 7 {
			st.steal = n
		}
	}
	return st
}

// stealShare is the share of the machine's processor time stolen between
// a and b (0 when /proc/stat cannot be read).
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuModel reads the processor model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
