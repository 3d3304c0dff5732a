package main

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"sci/internal/event"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/scinet"
	"sci/internal/server"
	"sci/internal/transport"
)

// recordNet hands the wrapped network's own endpoints to its callers
// unchanged and only remembers them, so their WireStats can be read: the
// unwrapped baseline.
type recordNet struct {
	transport.Network
	eps []transport.Endpoint
}

func (n *recordNet) Attach(id guid.GUID, h transport.Handler) (transport.Endpoint, error) {
	ep, err := n.Network.Attach(id, h)
	if err == nil {
		n.eps = append(n.eps, ep)
	}
	return ep, err
}

func (n *recordNet) bytesSent() uint64 {
	var sent uint64
	for _, ep := range n.eps {
		sent += ep.(transport.WireStatser).WireStats().BytesSent
	}
	return sent
}

// layerCounts are the per-layer figures the wrapper must not change.
type layerCounts struct {
	eventsPerFlush, msgsPerPublish, bytesPerDelivery float64
}

// lockstepFanout publishes full batches from one Range to three
// subscribing siblings one at a time, each only after the previous one
// was delivered everywhere and its credit acks settled, so the traffic is
// the same message for message on every run of one seed.
func lockstepFanout(t *testing.T, tcp, wrapped bool) layerCounts {
	t.Helper()
	const seed, peers, batches = 42, 3, 20
	var inner transport.Network = transport.NewMemory(transport.MemoryConfig{})
	if tcp {
		inner = transport.NewTCP(nil)
	}
	var netw transport.Network
	var bytesSent func() uint64
	if wrapped {
		tr := newTracer()
		tr.on.Store(true)
		w := newNetWrap(inner, tr)
		netw, bytesSent = w, func() uint64 { sent, _ := w.wireTotals(); return sent }
	} else {
		rn := &recordNet{Network: inner}
		netw, bytesSent = rn, rn.bytesSent
	}
	defer func() { _ = netw.Close() }()

	var fabrics []*scinet.Fabric
	mk := func(name string) (*server.Range, *scinet.Fabric) {
		rng := server.New(server.Config{Name: name, Coverage: location.Path("campus/" + name),
			BatchMaxEvents: fanBatch, BatchMaxDelay: 2 * time.Millisecond})
		f, err := scinet.NewFabric(rng, netw, nil)
		if err != nil {
			t.Fatal(err)
		}
		fabrics = append(fabrics, f)
		t.Cleanup(func() { _ = f.Close(); rng.Close() })
		return rng, f
	}
	pubRange, pub := mk("pub")
	var got atomic.Uint64
	for i := 0; i < peers; i++ {
		_, f := mk(fmt.Sprintf("sub%d", i))
		if err := f.Join(pub.NodeID()); err != nil {
			t.Fatal(err)
		}
		if _, err := f.SubscribeRemote(seededID(guid.KindApplication, seed, i), event.Filter{Type: fanType},
			func(event.Event) { got.Add(1) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := waitFor(10*time.Second, "interests", func() bool { return len(pub.Interests()) >= peers }); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // join and interest gossip settle

	type snap struct{ fwdEvents, fwdBatches, msgs, bytes uint64 }
	read := func() snap {
		var s snap
		for _, f := range fabrics {
			s.fwdEvents += f.EventsForwarded.Value()
			s.fwdBatches += f.BatchesForwarded.Value()
			d, r := f.OverlayCounters()
			s.msgs += d + r
		}
		s.bytes = bytesSent()
		return s
	}
	s := newStream(seed, 1, fanType, seededID(guid.KindDevice, seed, 0), fanBatch, fanRate)
	at := time.Unix(1e9, 0)
	before := read()
	for b := 1; b <= batches; b++ {
		if err := pubRange.PublishAll(s.take(at)); err != nil {
			t.Fatal(err)
		}
		want := uint64(b * fanBatch * peers)
		if err := waitFor(5*time.Second, "deliveries", func() bool { return got.Load() >= want }); err != nil {
			t.Fatal(err)
		}
		// Wait out the ack window until nothing moves: every credit ack
		// the batch caused is out before the next batch goes.
		for last := read(); ; {
			time.Sleep(30 * time.Millisecond)
			now := read()
			if now == last {
				break
			}
			last = now
		}
	}
	after := read()
	published := float64(batches * fanBatch)
	return layerCounts{
		eventsPerFlush:   float64(after.fwdEvents-before.fwdEvents) / float64(after.fwdBatches-before.fwdBatches),
		msgsPerPublish:   float64(after.msgs-before.msgs) / published,
		bytesPerDelivery: float64(after.bytes-before.bytes) / (published * peers),
	}
}

// TestWrapperChangesNoCounts runs one seed's lockstep fan-out with and
// without the tracing network wrapper (tracing on) and requires the
// per-layer counts to be identical: wrapping must not change what the
// program sends.
func TestWrapperChangesNoCounts(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		name := "memory"
		if tcp {
			name = "tcp"
		}
		t.Run(name, func(t *testing.T) {
			plain := lockstepFanout(t, tcp, false)
			wrapped := lockstepFanout(t, tcp, true)
			if plain != wrapped {
				t.Fatalf("wrapped run counts %+v, unwrapped %+v", wrapped, plain)
			}
			if plain.eventsPerFlush != fanBatch || plain.msgsPerPublish == 0 {
				t.Fatalf("implausible counts %+v", plain)
			}
			if tcp && plain.bytesPerDelivery == 0 {
				t.Fatalf("no bytes counted on TCP: %+v", plain)
			}
			t.Logf("%s: %+v", name, plain)
		})
	}
}
