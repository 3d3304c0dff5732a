package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/guid"
)

// ringBatches is how many pre-built batches a stream cycles through. The
// program copies events out of a published slice, so a slot may be reused
// as soon as its publish call returns; the ring only has to cover the
// saturating phase's in-flight window, and keeps the live heap small.
const ringBatches = 64

// splitmix64 derives every input value from the workload seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// stream is one seeded event source. Its batches are built once, in set-up,
// with payload values drawn from the seed; when a batch falls due only its
// events' ID, Seq and Time are stamped.
type stream struct {
	tag   byte
	typ   ctxtype.Type
	src   guid.GUID
	seed  uint64
	batch int
	rate  float64 // paced events per second; 0 for a saturating-only stream

	ring  [][]event.Event
	vals  []float64 // payload "v" per ring position
	rooms []string  // payload "room" per ring position
	next  uint64    // next seq to stamp (generator goroutine only)

	published atomic.Uint64
	// A sink records latency only for seqs in [pacedLo, pacedHi), the
	// current or last paced phase.
	pacedLo, pacedHi atomic.Uint64
}

func newStream(seed int64, tag byte, typ ctxtype.Type, src guid.GUID, batch int, rate float64) *stream {
	s := &stream{tag: tag, typ: typ, src: src, seed: splitmix64(uint64(seed) ^ uint64(tag)<<56), batch: batch, rate: rate}
	n := batch * ringBatches
	s.vals = make([]float64, n)
	s.rooms = make([]string, n)
	s.ring = make([][]event.Event, ringBatches)
	for b := range s.ring {
		evs := make([]event.Event, batch)
		for i := range evs {
			pos := b*batch + i
			v := float64(splitmix64(s.seed+uint64(pos))>>11) / (1 << 53) * 1000
			s.vals[pos] = v
			s.rooms[pos] = fmt.Sprintf("r%d", splitmix64(s.seed^uint64(pos))%97)
			evs[i] = event.Event{
				Type:    typ,
				Source:  src,
				Payload: map[string]any{"v": v, "room": s.rooms[pos]},
			}
		}
		s.ring[b] = evs
	}
	return s
}

// eventID names one published event: unique per (stream, seq) and derived
// from the seed, never from an entropy source.
func (s *stream) eventID(seq uint64) guid.GUID {
	var g guid.GUID
	g[0] = byte(guid.KindEvent)
	g[1] = s.tag
	binary.BigEndian.PutUint64(g[2:10], seq)
	binary.BigEndian.PutUint32(g[10:14], uint32(s.seed))
	return g
}

// take stamps the next batch with consecutive seqs and the given time.
func (s *stream) take(at time.Time) []event.Event {
	slot := s.ring[(s.next/uint64(s.batch))%ringBatches]
	for i := range slot {
		seq := s.next + uint64(i)
		slot[i].ID = s.eventID(seq)
		slot[i].Seq = seq
		slot[i].Time = at
	}
	s.next += uint64(s.batch)
	return slot
}

// check reports whether e's payload is the one set-up built for its seq.
func (s *stream) check(e event.Event) bool {
	if e.Type != s.typ || e.Source != s.src || e.ID != s.eventID(e.Seq) {
		return false
	}
	pos := int(e.Seq % uint64(len(s.vals)))
	v, ok := e.Payload["v"].(float64)
	room, _ := e.Payload["room"].(string)
	return ok && v == s.vals[pos] && room == s.rooms[pos]
}

// sink is a stable subscriber: it expects every event of each of its
// streams exactly once, checks each payload, and times paced deliveries.
type sink struct {
	streams map[byte]*stream
	count   atomic.Uint64  // unique deliveries
	total   *atomic.Uint64 // the rig's count of unique deliveries
	waiting *atomic.Bool   // the closed loop waits for room
	refill  chan<- struct{}
	low     uint64 // lag at which a waiting closed loop is woken

	mu   sync.Mutex
	seen map[byte][]uint64 // per-stream bitmap of delivered seqs
	dups uint64
	bad  uint64 // wrong payload, type, source or unknown stream
	lat  *hist  // paced latencies since the last drainLat
}

func newSink(streams ...*stream) *sink {
	k := &sink{streams: make(map[byte]*stream), seen: make(map[byte][]uint64), lat: newHist()}
	for _, s := range streams {
		k.streams[s.tag] = s
	}
	return k
}

func (k *sink) handle(e event.Event) {
	now := time.Now()
	k.mu.Lock()
	defer k.mu.Unlock()
	s := k.streams[e.ID[1]]
	if s == nil || !s.check(e) {
		k.bad++
		return
	}
	bm := k.seen[s.tag]
	w := int(e.Seq / 64)
	for w >= len(bm) {
		bm = append(bm, 0)
	}
	k.seen[s.tag] = bm
	bit := uint64(1) << (e.Seq % 64)
	if bm[w]&bit != 0 {
		k.dups++
		return
	}
	bm[w] |= bit
	n := k.count.Add(1)
	k.total.Add(1)
	if k.waiting.Load() && k.owed()-n <= k.low {
		select {
		case k.refill <- struct{}{}:
		default:
		}
	}
	if e.Seq >= s.pacedLo.Load() && e.Seq < s.pacedHi.Load() {
		k.lat.record(now.Sub(e.Time))
	}
}

// drainLat moves the latencies recorded so far into h.
func (k *sink) drainLat(h *hist) {
	k.mu.Lock()
	h.merge(k.lat)
	k.lat.reset()
	k.mu.Unlock()
}

// owed is how many of its streams' published events the sink expects.
func (k *sink) owed() uint64 {
	var n uint64
	for _, s := range k.streams {
		n += s.published.Load()
	}
	return n
}

// missing counts seqs below each stream's published count never delivered.
func (k *sink) missing() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var miss uint64
	for tag, s := range k.streams {
		bm := k.seen[tag]
		pub := s.published.Load()
		for seq := uint64(0); seq < pub; seq++ {
			w := int(seq / 64)
			if w >= len(bm) || bm[w]&(1<<(seq%64)) == 0 {
				miss++
			}
		}
	}
	return miss
}

// probe is one churned subscriber: it notes its first delivery and counts
// deliveries that arrive later than grace after its unsubscribe returned.
type probe struct {
	first   chan time.Time
	once    sync.Once
	goneAt  atomic.Int64 // unix ns when unsubscribe returned; 0 while live
	late    atomic.Uint64
	bad     atomic.Uint64
	streams map[byte]*stream
}

// unsubscribeGrace bounds how long after unsubscribe (or Deregister)
// returns an event already in the subscriber's queue may still arrive.
const unsubscribeGrace = 100 * time.Millisecond

func newProbe(streams map[byte]*stream) *probe {
	return &probe{first: make(chan time.Time, 1), streams: streams}
}

func (p *probe) handle(e event.Event) {
	now := time.Now()
	if gone := p.goneAt.Load(); gone != 0 && now.UnixNano()-gone > int64(unsubscribeGrace) {
		p.late.Add(1)
	}
	if s := p.streams[e.ID[1]]; s == nil || !s.check(e) {
		p.bad.Add(1)
	}
	p.once.Do(func() { p.first <- now })
}

func (p *probe) gone() { p.goneAt.Store(time.Now().UnixNano()) }
