package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/guid"
	"sci/internal/transport"
	"sci/internal/wire"
)

// maxSpans bounds the spans one traced phase keeps in memory; calls past
// it go untimed and are counted as dropped.
const maxSpans = 1 << 19

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Parent is the index of the span open on the
// same goroutine when this one began (-1 for none); ID links spans of one
// batch (stream tag and first seq) or one query (correlation id).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	ID     uint64 `json:"id,omitempty"`

	gid   int64
	child int64 // ns covered by child spans
}

// layerTotal accumulates one span name's calls, total and self time.
type layerTotal struct {
	Calls int64
	Total int64 // ns
	Self  int64 // ns
}

// tracer records spans while on. Off, a span costs one atomic load.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	open    map[int64][]int32 // goroutine → stack of open span indices
	totals  map[string]*layerTotal
	dropped int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), open: make(map[int64][]int32), totals: make(map[string]*layerTotal)}
}

// goid parses the current goroutine's id from its stack header; it is
// called only while tracing, whose overhead the run reports.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = b[len("goroutine "):]
	i := 0
	for i < len(b) && b[i] != ' ' {
		i++
	}
	id, _ := strconv.ParseInt(string(b[:i]), 10, 64)
	return id
}

// begin opens a span and returns a token for end, or -1 when tracing is
// off.
func (t *tracer) begin(name string, id uint64) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	g := goid()
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if st := t.open[g]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, ID: id, gid: g})
	idx := int32(len(t.spans) - 1)
	t.open[g] = append(t.open[g], idx)
	return idx
}

func (t *tracer) end(idx int32) {
	if idx < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[idx]
	s.End = now
	if st := t.open[s.gid]; len(st) > 0 {
		t.open[s.gid] = st[:len(st)-1]
		if len(st) == 1 {
			delete(t.open, s.gid)
		}
	}
	d := s.End - s.Start
	if s.Parent >= 0 {
		t.spans[s.Parent].child += d
	}
	lt := t.totals[s.Name]
	if lt == nil {
		lt = &layerTotal{}
		t.totals[s.Name] = lt
	}
	lt.Calls++
	lt.Total += d
	lt.Self += d - s.child
}

// reset drops every recorded span and total (between an untraced and a
// traced phase the tracer is off, so nothing is open).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.totals = make(map[string]*layerTotal)
	t.dropped = 0
	t.mu.Unlock()
}

func (t *tracer) total(name string) layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lt := t.totals[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// selfByName returns each span name's self time.
func (t *tracer) selfByName() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.totals))
	for name, lt := range t.totals {
		out[name] = lt.Self
	}
	return out
}

// write saves the kept spans as JSON lines in the order they began; a
// span's parent is the line index of the span that enclosed it.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// netWrap wraps a transport.Network so that each endpoint's sends and
// inbound handler calls are counted and timed while tracing is on. It
// passes WireStats and ConfigureCodec through to the wrapped network (both
// backends implement them), so wrapping changes no behaviour.
type netWrap struct {
	inner transport.Network
	tr    *tracer

	sends, sendNs      atomic.Int64
	handled, handlerNs atomic.Int64

	mu  sync.Mutex
	eps []transport.Endpoint // inner endpoints, for WireStats
}

func newNetWrap(inner transport.Network, tr *tracer) *netWrap {
	return &netWrap{inner: inner, tr: tr}
}

// Attach implements transport.Network.
func (w *netWrap) Attach(id guid.GUID, h transport.Handler) (transport.Endpoint, error) {
	inner, err := w.inner.Attach(id, func(m wire.Message) {
		if !w.tr.on.Load() {
			h(m)
			return
		}
		tok := w.tr.begin("transport.handler", msgID(m))
		t0 := time.Now()
		h(m)
		w.handlerNs.Add(int64(time.Since(t0)))
		w.handled.Add(1)
		w.tr.end(tok)
	})
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.eps = append(w.eps, inner)
	w.mu.Unlock()
	return &wrapEP{Endpoint: inner, w: w}, nil
}

// Close implements transport.Network.
func (w *netWrap) Close() error { return w.inner.Close() }

// ConfigureCodec implements transport.CodecConfigurer.
func (w *netWrap) ConfigureCodec(id guid.GUID, codec wire.Codec) {
	if cc, ok := w.inner.(transport.CodecConfigurer); ok {
		cc.ConfigureCodec(id, codec)
	}
}

// wireTotals sums WireStats over every endpoint ever attached.
func (w *netWrap) wireTotals() (sent uint64, codecs map[string]int) {
	w.mu.Lock()
	eps := append([]transport.Endpoint(nil), w.eps...)
	w.mu.Unlock()
	codecs = make(map[string]int)
	for _, ep := range eps {
		ws, ok := ep.(transport.WireStatser)
		if !ok {
			continue
		}
		st := ws.WireStats()
		sent += st.BytesSent
		for c, n := range st.Codecs {
			codecs[c] += n
		}
	}
	return sent, codecs
}

type wrapEP struct {
	transport.Endpoint
	w *netWrap
}

// Send implements transport.Endpoint.
func (e *wrapEP) Send(m wire.Message) error {
	if !e.w.tr.on.Load() {
		return e.Endpoint.Send(m)
	}
	tok := e.w.tr.begin("transport.send", msgID(m))
	t0 := time.Now()
	err := e.Endpoint.Send(m)
	e.w.sendNs.Add(int64(time.Since(t0)))
	e.w.sends.Add(1)
	e.w.tr.end(tok)
	return err
}

// WireStats implements transport.WireStatser.
func (e *wrapEP) WireStats() transport.WireStats {
	if ws, ok := e.Endpoint.(transport.WireStatser); ok {
		return ws.WireStats()
	}
	return transport.WireStats{}
}

// msgID links a message's spans to the generator batch it carries (stream
// tag and first seq) or, for request traffic, to its correlation id.
func msgID(m wire.Message) uint64 {
	if m.Batch != nil && len(m.Batch.Events) > 0 {
		e := m.Batch.Events[0]
		return uint64(e.ID[1])<<56 | e.Seq
	}
	var id uint64
	for _, b := range m.Corr[8:] {
		id = id<<8 | uint64(b)
	}
	return id
}

// batchID is the span id of a generator batch.
func batchID(tag byte, seq uint64) uint64 { return uint64(tag)<<56 | seq }
