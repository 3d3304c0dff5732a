package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sci/internal/ctxtype"
	"sci/internal/event"
	"sci/internal/flow"
	"sci/internal/guid"
	"sci/internal/location"
	"sci/internal/profile"
	"sci/internal/query"
	"sci/internal/rangesvc"
	"sci/internal/scinet"
	"sci/internal/sensor"
	"sci/internal/server"
	"sci/internal/transport"
)

// Workload shapes. Paced rates leave headroom on a shared 2-vCPU machine:
// the phase must deliver every event (delivered_ratio = 1) through
// scheduler stalls, which the subscription queues (4096 events, dropping
// the oldest when full) absorb only while they last. At 20k fan-out
// events/s that is 200 ms, and fanout-tcp needs about half a core; at 40k
// it lost a batch when two busy processes shared the machine.
const (
	fanType      = ctxtype.Type("bench.fanout")
	fanPeers     = 3
	fanBatch     = 64
	fanRate      = 20000 // published events/s, each delivered to fanPeers
	fanDoors     = 16
	fanCtlEvery  = 5 * time.Millisecond
	fanAttachOps = 8 // one attach cycle per 8 control ops

	devHotBatch  = 64
	devHotRate   = 20000
	devTrickle   = 400 // events/s to the idle subscribers
	devIdle      = 8
	devDoors     = 24
	devCtlEvery  = 5 * time.Millisecond
	devAttachOps = 4

	fleetSize      = 32
	fleetPubs      = 4
	fleetSubs      = 4
	fleetBatch     = 4
	fleetRate      = 250 // per publishing leaf
	fleetDoors     = 8
	fleetCtlEvery  = 4 * time.Millisecond
	fleetAttachOps = 10 // attach cycles 40 ms apart, past the 20 ms digest window

	// ctlOps is enough scheduled control ops for the longest run.
	ctlOps = 20000
	// opTimeout bounds a query answer or an attach's first delivery; a
	// later one counts as failed.
	opTimeout = 2 * time.Second
)

type builder func(seed int64, tr *tracer) (*rig, error)

var workloads = map[string]builder{
	"fanout-mem":   func(seed int64, tr *tracer) (*rig, error) { return buildFanout(seed, false, tr) },
	"fanout-tcp":   func(seed int64, tr *tracer) (*rig, error) { return buildFanout(seed, true, tr) },
	"device-churn": buildDevice,
	"fleet-churn":  buildFleet,
}

func waitFor(limit time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// addDoors gives a Range a seeded population of door-sensor CEs and
// returns their ids: the known profile population query answers are
// checked against.
func addDoors(rng *server.Range, seed int64, base, n int) (guid.Set, error) {
	ids := guid.NewSet()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("%s-d%d-%x", rng.Name(), i, splitmix64(uint64(seed)+uint64(base+i))&0xffff)
		at := location.Ref{Path: location.Path(fmt.Sprintf("%s/door%d", rng.Coverage(), i))}
		ds := sensor.NewDoorSensor(name, at, nil)
		if err := rng.AddEntity(ds); err != nil {
			return nil, err
		}
		ids.Add(ds.ID())
	}
	return ids, nil
}

// awaitFirst waits for a churned subscriber's first delivery and returns
// its delay from since.
func awaitFirst(p *probe, since time.Time) (time.Duration, error) {
	select {
	case at := <-p.first:
		return at.Sub(since), nil
	case <-time.After(opTimeout):
		return 0, errors.New("attach: no delivery within timeout")
	}
}

// routedQuery submits an advertisement query for door sightings in the
// area covered by target through origin and checks the answering provider
// is one of target's doors.
func (r *rig) routedQuery(origin *scinet.Fabric, area location.Path, doors guid.Set, owner guid.GUID) (time.Duration, error) {
	q := query.New(owner, query.What{Pattern: ctxtype.LocationSightingDoor}, query.ModeAdvertisement)
	q.Where.Explicit = location.Ref{Path: area}
	tok := r.tr.begin("scinet.submit", 0)
	t0 := time.Now()
	res, err := origin.Submit(q, nil)
	lat := time.Since(t0)
	r.tr.end(tok)
	switch {
	case err != nil:
		return 0, fmt.Errorf("routed query: %w", err)
	case res.QueryID != q.ID || !doors.Has(res.Provider):
		return 0, fmt.Errorf("routed query to %s answered by %s, not one of its doors", area, res.Provider.Short())
	case lat > opTimeout:
		return 0, fmt.Errorf("routed query answered after %v", lat)
	}
	return lat, nil
}

// fabricAttach runs one dynamic-composition cycle on f: subscribe, time
// the first matching delivery, unsubscribe.
func (r *rig) fabricAttach(f *scinet.Fabric, owner guid.GUID, typ ctxtype.Type) (time.Duration, error) {
	p := r.newProbe()
	tok := r.tr.begin("scinet.subscribe", 0)
	rec, err := f.SubscribeRemote(owner, event.Filter{Type: typ}, p.handle)
	r.tr.end(tok)
	if err != nil {
		return 0, fmt.Errorf("attach: %w", err)
	}
	lat, werr := awaitFirst(p, time.Now())
	tok = r.tr.begin("scinet.unsubscribe", 0)
	err = f.UnsubscribeRemote(rec)
	r.tr.end(tok)
	p.gone()
	if werr != nil {
		return 0, werr
	}
	if err != nil {
		return 0, fmt.Errorf("detach: %w", err)
	}
	return lat, nil
}

func (r *rig) addFabric(cfg server.Config) (*server.Range, *scinet.Fabric, error) {
	rng := server.New(cfg)
	f, err := scinet.NewFabric(rng, r.net, nil)
	if err != nil {
		rng.Close()
		return nil, nil, err
	}
	r.ranges = append(r.ranges, rng)
	r.fabrics = append(r.fabrics, f)
	r.closers = append(r.closers, func() {
		_ = f.Close()
		rng.Close()
	})
	return rng, f, nil
}

// buildFanout: one publisher Range fans out to fanPeers sibling Ranges'
// SubscribeRemote handlers; a fifth Range hosts the churned subscriber.
func buildFanout(seed int64, tcp bool, tr *tracer) (*rig, error) {
	// SubscribeRemote queues hold 4096 events per subscriber.
	r := &rig{transport: "memory", tr: tr, subsOf: make(map[byte]int), window: 3072}
	var inner transport.Network = transport.NewMemory(transport.MemoryConfig{})
	if tcp {
		r.transport = "tcp"
		inner = transport.NewTCP(nil)
	}
	r.net = newNetWrap(inner, tr)
	r.closers = append(r.closers, func() { _ = r.net.Close() })
	fail := func(err error) (*rig, error) { r.close(); return nil, err }

	cfg := func(name string) server.Config {
		return server.Config{Name: name, Coverage: location.Path("campus/" + name),
			BatchMaxEvents: fanBatch, BatchMaxDelay: 2 * time.Millisecond}
	}
	pubRange, pubFabric, err := r.addFabric(cfg("pub"))
	if err != nil {
		return fail(err)
	}
	doors, err := addDoors(pubRange, seed, 0, fanDoors)
	if err != nil {
		return fail(err)
	}
	s := newStream(seed, 1, fanType, seededID(guid.KindDevice, seed, 0), fanBatch, fanRate)
	r.streams = []*stream{s}
	r.publish = func(_ int, b []event.Event) error { return pubRange.PublishAll(b) }
	for i := 0; i < fanPeers+1; i++ {
		name := fmt.Sprintf("sub%d", i)
		if i == fanPeers {
			name = "churn"
		}
		_, f, err := r.addFabric(cfg(name))
		if err != nil {
			return fail(err)
		}
		if err := f.Join(pubFabric.NodeID()); err != nil {
			return fail(err)
		}
		if i == fanPeers {
			break
		}
		k := r.addSink(s)
		if _, err := f.SubscribeRemote(seededID(guid.KindApplication, seed, 10+i), event.Filter{Type: fanType}, k.handle); err != nil {
			return fail(err)
		}
	}
	if err := waitFor(10*time.Second, "fan-out interests", func() bool { return len(pubFabric.Interests()) >= fanPeers }); err != nil {
		return fail(err)
	}
	r.satStreams = []int{0}
	r.ctlEvery = fanCtlEvery
	rnd := rand.New(rand.NewSource(seed))
	r.ops = buildSchedule(rnd, ctlOps, fanAttachOps, fanPeers, 1, r.ctlEvery)
	churn := r.fabrics[len(r.fabrics)-1]
	owner := seededID(guid.KindApplication, seed, 99)
	r.attach = func(op ctlOp) (time.Duration, error) { return r.fabricAttach(churn, owner, fanType) }
	r.query = func(op ctlOp) (time.Duration, error) {
		return r.routedQuery(r.fabrics[1+op.a], "campus/pub", doors, owner)
	}
	return r, nil
}

// buildDevice: one Range behind a rangesvc.Host. A sensor device publishes
// a hot stream to one subscriber device and a trickle to devIdle idle
// ones; the control client churns a subscriber device through its whole
// lifecycle and submits profile queries.
func buildDevice(seed int64, tr *tracer) (*rig, error) {
	// The hot subscription's root ring holds 1024 events; keeping the
	// publisher's lead below it keeps freshest-wins drops out of the
	// closed loop.
	r := &rig{transport: "memory", tr: tr, subsOf: make(map[byte]int), window: 768}
	r.net = newNetWrap(transport.NewMemory(transport.MemoryConfig{}), tr)
	r.closers = append(r.closers, func() { _ = r.net.Close() })
	fail := func(err error) (*rig, error) { r.close(); return nil, err }

	rng := server.New(server.Config{Name: "dev", Coverage: "campus/dev",
		BatchMaxEvents: 64, BatchMaxDelay: 2 * time.Millisecond,
		AdaptiveBatching: flow.Adaptive{Enabled: true}})
	r.ranges = []*server.Range{rng}
	r.closers = append(r.closers, rng.Close)
	host, err := rangesvc.NewHost(rng, r.net, nil)
	if err != nil {
		return fail(err)
	}
	r.host = host
	doors, err := addDoors(rng, seed, 0, devDoors)
	if err != nil {
		return fail(err)
	}
	connect := func(i int, name string, onEvent func(event.Event), prof profile.Profile, app bool) (*rangesvc.Connector, error) {
		kind := guid.KindApplication
		if !app {
			kind = guid.KindDevice
		}
		c, err := rangesvc.NewConnector(seededID(kind, seed, i), name, r.net, onEvent, nil)
		if err != nil {
			return nil, err
		}
		if err := c.Register(rng.ServerID(), prof, app); err != nil {
			_ = c.Close()
			return nil, err
		}
		r.conns = append(r.conns, c)
		r.closers = append(r.closers, func() { _ = c.Close() })
		return c, nil
	}
	sens, err := connect(0, "sensor", nil, profile.Profile{
		Outputs:    []ctxtype.Type{ctxtype.TemperatureKelvin, ctxtype.LocationSightingWLAN},
		Quality:    0.9,
		Attributes: map[string]string{"kind": "bench-sensor"},
	}, false)
	if err != nil {
		return fail(err)
	}
	hot := newStream(seed, 1, ctxtype.TemperatureKelvin, sens.ID(), devHotBatch, devHotRate)
	trickle := newStream(seed, 2, ctxtype.LocationSightingWLAN, sens.ID(), 1, devTrickle)
	r.streams = []*stream{hot, trickle}
	r.publish = func(_ int, b []event.Event) error { return sens.PublishAll(b) }
	subscribe := func(c *rangesvc.Connector, typ ctxtype.Type) error {
		res, err := c.Submit(query.New(c.ID(), query.What{Pattern: typ}, query.ModeSubscribe))
		if err != nil {
			return err
		}
		if res.Configuration.IsNil() {
			return errors.New("subscription not instantiated")
		}
		return nil
	}
	k := r.addSink(hot)
	c, err := connect(1, "hot", k.handle, profile.Profile{}, true)
	if err == nil {
		err = subscribe(c, ctxtype.TemperatureKelvin)
	}
	if err != nil {
		return fail(err)
	}
	for i := 0; i < devIdle; i++ {
		k := r.addSink(trickle)
		c, err := connect(2+i, fmt.Sprintf("idle%d", i), k.handle, profile.Profile{}, true)
		if err == nil {
			err = subscribe(c, ctxtype.LocationSightingWLAN)
		}
		if err != nil {
			return fail(err)
		}
	}
	ctl, err := connect(100, "control", nil, profile.Profile{}, true)
	if err != nil {
		return fail(err)
	}

	r.satStreams = []int{0}
	r.ctlEvery = devCtlEvery
	rnd := rand.New(rand.NewSource(seed))
	r.ops = buildSchedule(rnd, ctlOps, devAttachOps, 1, 1, r.ctlEvery)
	joined := 0
	r.attach = func(op ctlOp) (time.Duration, error) {
		joined++
		p := r.newProbe()
		tok := r.tr.begin("rangesvc.new_connector", 0)
		c, err := rangesvc.NewConnector(seededID(guid.KindApplication, seed, 1000+joined), "churn", r.net, p.handle, nil)
		r.tr.end(tok)
		if err != nil {
			return 0, err
		}
		defer func() { _ = c.Close() }()
		tok = r.tr.begin("rangesvc.register", 0)
		err = c.Register(rng.ServerID(), profile.Profile{}, true)
		r.tr.end(tok)
		if err != nil {
			return 0, fmt.Errorf("register: %w", err)
		}
		tok = r.tr.begin("rangesvc.submit", 0)
		err = subscribe(c, ctxtype.LocationSightingWLAN)
		r.tr.end(tok)
		if err != nil {
			return 0, fmt.Errorf("subscribe: %w", err)
		}
		lat, werr := awaitFirst(p, time.Now())
		tok = r.tr.begin("rangesvc.deregister", 0)
		err = c.Deregister()
		r.tr.end(tok)
		p.gone()
		if werr != nil {
			return 0, werr
		}
		if err != nil {
			return 0, fmt.Errorf("deregister: %w", err)
		}
		return lat, nil
	}
	r.query = func(op ctlOp) (time.Duration, error) {
		tok := r.tr.begin("rangesvc.submit", 0)
		t0 := time.Now()
		res, err := ctl.Submit(query.New(ctl.ID(), query.What{EntityType: "door-sensor"}, query.ModeProfile))
		lat := time.Since(t0)
		r.tr.end(tok)
		if err != nil {
			return 0, fmt.Errorf("profile query: %w", err)
		}
		got := guid.NewSet()
		for _, p := range res.Profiles {
			got.Add(p.Entity)
		}
		if len(res.Profiles) != len(doors) || len(got) != len(doors) {
			return 0, fmt.Errorf("profile query: %d profiles, want the %d doors", len(res.Profiles), len(doors))
		}
		for id := range doors {
			if !got.Has(id) {
				return 0, errors.New("profile query: a door is missing from the answer")
			}
		}
		if lat > opTimeout {
			return 0, fmt.Errorf("profile query answered after %v", lat)
		}
		return lat, nil
	}
	return r, nil
}

// buildFleet: a fleetSize-fabric SCINET under a super-peer hierarchy
// (⌈√N⌉ roots in a digest clique, leaves round robin below them). Four
// leaves publish a paced trickle to four stable subscriber leaves that sit
// under other roots; the control client churns one interest on the
// remaining leaves and routes advertisement queries between random Ranges.
func buildFleet(seed int64, tr *tracer) (*rig, error) {
	r := &rig{transport: "memory", tr: tr, subsOf: make(map[byte]int), window: 2048}
	r.net = newNetWrap(transport.NewMemory(transport.MemoryConfig{}), tr)
	r.closers = append(r.closers, func() { _ = r.net.Close() })
	fail := func(err error) (*rig, error) { r.close(); return nil, err }
	const loadType, bulkType, probeType = ctxtype.Type("grid.load"), ctxtype.Type("grid.bulk"), ctxtype.Type("grid.probe")

	supers := int(math.Ceil(math.Sqrt(fleetSize)))
	doors := make([]guid.Set, fleetSize)
	for i := 0; i < fleetSize; i++ {
		rng, _, err := r.addFabric(server.Config{Name: fmt.Sprintf("g%d", i),
			Coverage: location.Path(fmt.Sprintf("grid/%d", i)), BatchMaxEvents: 8, BatchMaxDelay: 2 * time.Millisecond})
		if err != nil {
			return fail(err)
		}
		if doors[i], err = addDoors(rng, seed, i*fleetDoors, fleetDoors); err != nil {
			return fail(err)
		}
	}
	ids := make([]guid.GUID, fleetSize)
	for i, f := range r.fabrics {
		ids[i] = f.NodeID()
	}
	for i, f := range r.fabrics {
		cfg := scinet.HierarchyConfig{DigestWindow: 20 * time.Millisecond}
		if i < supers {
			cfg.SuperPeer = true
			for j := 0; j < supers; j++ {
				if j != i {
					cfg.Peers = append(cfg.Peers, ids[j])
				}
			}
		} else {
			cfg.Parent = ids[(i-supers)%supers]
			cfg.Level = 1
		}
		f.SetHierarchy(cfg)
	}
	for _, f := range r.fabrics[1:] {
		if err := f.Join(ids[0]); err != nil {
			return fail(err)
		}
	}
	// Leaves supers..supers+3 publish (under roots 0-3); the next four
	// subscribe (under roots 4, 5, 0, 1), so most paths cross roots.
	pubIdx := supers
	subIdx := supers + fleetPubs
	churners := r.fabrics[subIdx+fleetSubs:]
	for i := 0; i < fleetPubs; i++ {
		r.streams = append(r.streams, newStream(seed, byte(1+i), loadType, seededID(guid.KindDevice, seed, i), fleetBatch, fleetRate))
	}
	// The saturating phase publishes full batches of their own type from
	// the first publishing leaf to one subscriber in the same subtree (under
	// root 0): with trickle-sized batches the closed loop would wait on
	// coalescer hold timers, and across roots its rate would follow the
	// run's random overlay ids more than the code.
	loads := r.streams
	bulk := newStream(seed, fleetPubs+1, bulkType, seededID(guid.KindDevice, seed, fleetPubs), 64, 0)
	r.streams = append(r.streams, bulk)
	r.satStreams = []int{fleetPubs}
	r.publish = func(s int, b []event.Event) error { return r.ranges[pubIdx+s%fleetPubs].PublishAll(b) }
	bulkSink := r.addSink(bulk)
	if _, err := r.fabrics[subIdx+2].SubscribeRemote(seededID(guid.KindApplication, seed, 30), event.Filter{Type: bulkType}, bulkSink.handle); err != nil {
		return fail(err)
	}
	seenProbe := make([]chan struct{}, fleetSubs)
	for i := 0; i < fleetSubs; i++ {
		f := r.fabrics[subIdx+i]
		k := r.addSink(loads...)
		if _, err := f.SubscribeRemote(seededID(guid.KindApplication, seed, 10+i), event.Filter{Type: loadType}, k.handle); err != nil {
			return fail(err)
		}
		seen := make(map[guid.GUID]bool)
		ch := make(chan struct{})
		seenProbe[i] = ch
		if _, err := f.SubscribeRemote(seededID(guid.KindApplication, seed, 20+i), event.Filter{Type: probeType}, func(e event.Event) {
			if !seen[e.Source] {
				seen[e.Source] = true
				if len(seen) == fleetPubs {
					close(ch)
				}
			}
		}); err != nil {
			return fail(err)
		}
	}
	// Readiness: repeat probe events from every publisher until each
	// subscriber has heard all of them, proving every pub→sub digest path
	// live before any counted event is published.
	probeSrc := make([]guid.GUID, fleetPubs)
	for i := range probeSrc {
		probeSrc[i] = seededID(guid.KindDevice, seed, 50+i)
	}
	ready := func() bool {
		for _, ch := range seenProbe {
			select {
			case <-ch:
			default:
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(20 * time.Second)
	for seq := uint64(1); !ready(); seq++ {
		if time.Now().After(deadline) {
			return fail(errors.New("fleet pub→sub paths not live within 20s"))
		}
		for i := 0; i < fleetPubs; i++ {
			if err := r.ranges[pubIdx+i].Publish(event.New(probeType, probeSrc[i], seq, time.Now(), nil)); err != nil {
				return fail(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}

	r.ctlEvery = fleetCtlEvery
	rnd := rand.New(rand.NewSource(seed))
	r.ops = buildSchedule(rnd, ctlOps, fleetAttachOps, fleetSize, fleetSize-1, r.ctlEvery)
	owner := seededID(guid.KindApplication, seed, 99)
	r.attach = func(op ctlOp) (time.Duration, error) {
		return r.fabricAttach(churners[op.a%len(churners)], owner, loadType)
	}
	// A fabric routes a query only to Ranges whose coverage it has learned,
	// and the overlay gossips coverage to its routing neighbours only. Each
	// query therefore starts at the first fabric from the scheduled origin
	// on that knows the scheduled target.
	knows := make([]map[guid.GUID]location.Path, fleetSize)
	for i, f := range r.fabrics {
		knows[i] = f.Coverage()
	}
	r.query = func(op ctlOp) (time.Duration, error) {
		target := op.b
		if target >= op.a {
			target++ // never the origin itself
		}
		origin := op.a
		for k := 0; k < fleetSize; k++ {
			o := (op.a + k) % fleetSize
			if _, ok := knows[o][ids[target]]; ok && o != target {
				origin = o
				break
			}
		}
		return r.routedQuery(r.fabrics[origin], location.Path(fmt.Sprintf("grid/%d", target)), doors[target], owner)
	}
	return r, nil
}
