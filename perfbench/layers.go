package main

import (
	"strings"
	"time"
)

// counters is one cumulative snapshot of every layer's public counters
// across the rig; a phase's figures are the difference of two snapshots.
type counters struct {
	busPublished, busDelivered, busDropped, busResidual uint64
	subsLive                                            int
	flushes, throttles, shed                            uint64
	fwdBatches, fwdEvents, ingested, relayed, echoes    uint64
	interestState                                       int
	ovDelivered, ovRelayed                              uint64
	acks, piggy, dqDrops                                uint64
	wireBytes                                           uint64
	binaryConns                                         int
	sends, sendNs, handled, handlerNs                   int64
}

func (r *rig) snap() counters {
	var c counters
	for _, rng := range r.ranges {
		st := rng.DispatchStats()
		c.busPublished += st.Published
		c.busDelivered += st.Delivered
		c.busDropped += st.Dropped
		c.busResidual += st.ResidualScanned
		c.subsLive += st.Subs
		fs := rng.FlowStats()
		c.flushes += fs.Flushes.Value()
		c.throttles += fs.ThrottleEvents.Value()
		c.shed += fs.EventsShed.Value()
	}
	for _, f := range r.fabrics {
		c.fwdBatches += f.BatchesForwarded.Value()
		c.fwdEvents += f.EventsForwarded.Value()
		c.ingested += f.BatchesIngested.Value()
		c.relayed += f.BatchesRelayed.Value()
		c.echoes += f.EchoesDropped.Value()
		c.interestState += f.InterestStateSize()
		d, rl := f.OverlayCounters()
		c.ovDelivered += d
		c.ovRelayed += rl
	}
	if r.host != nil {
		c.acks += r.host.AcksSent.Value()
		c.piggy += r.host.AcksPiggybacked.Value()
	}
	for _, cn := range r.conns {
		c.acks += cn.AcksSent()
		c.piggy += cn.AcksPiggybacked()
		c.dqDrops += cn.DeliveryDrops()
	}
	var codecs map[string]int
	c.wireBytes, codecs = r.net.wireTotals()
	if r.transport == "tcp" {
		c.binaryConns = codecs["binary"]
	}
	c.sends, c.sendNs = r.net.sends.Load(), r.net.sendNs.Load()
	c.handled, c.handlerNs = r.net.handled.Load(), r.net.handlerNs.Load()
	return c
}

// perLayer computes the traced run's per-layer metrics from the traced
// paced phase (pr, between snapshots c0 and c1), the tracer's spans, and
// the untraced phase before it (base) for the tracing overhead.
func perLayer(r *rig, tr *tracer, base, pr *pacedResult, c0, c1 counters) map[string]float64 {
	wall := pr.secs * 1e9 // ns
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	mean := func(name string, unit time.Duration) float64 {
		lt := tr.total(name)
		return div(float64(lt.Total), float64(lt.Calls)) / float64(unit)
	}
	deliv := float64(pr.got)
	pubs := float64(pr.published)
	var batches float64
	for _, s := range r.streams {
		batches += float64(s.pacedHi.Load()-s.pacedLo.Load()) / float64(s.batch)
	}
	pubTotal := tr.total("server.publish")
	send := float64(c1.sendNs - c0.sendNs)
	handler := float64(c1.handlerNs - c0.handlerNs)
	busDel := float64(c1.busDelivered - c0.busDelivered)
	busDrop := float64(c1.busDropped - c0.busDropped)
	// Events per coalescer flush: fabric batches carry their own counts; a
	// Range Service host's coalescers ship to the connectors, so there the
	// stable subscriber devices' deliveries are counted against the Range's
	// flushes.
	perFlush := div(float64(c1.fwdEvents-c0.fwdEvents), float64(c1.fwdBatches-c0.fwdBatches))
	if r.host != nil {
		perFlush = div(deliv, float64(c1.flushes-c0.flushes))
	}

	self := tr.selfByName()
	sum := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += self[n]
		}
		return float64(ns) / 1e6
	}
	cpuNs := float64(pr.cpu)
	spanned := float64(self["server.publish"] + self["transport.send"] + self["transport.handler"])

	tr.mu.Lock()
	spans, dropped := len(tr.spans), tr.dropped
	tr.mu.Unlock()

	return map[string]float64{
		"gen.late_ms_max":           float64(pr.lateMax) / float64(time.Millisecond),
		"gen.offered_eps":           div(pubs, pr.secs),
		"server.publish_call_us":    mean("server.publish", time.Microsecond),
		"server.publish_busy_share": div(float64(pubTotal.Total), wall),

		"eventbus.drop_ratio":           div(busDrop, busDel+busDrop),
		"eventbus.residual_per_publish": div(float64(c1.busResidual-c0.busResidual), float64(c1.busPublished-c0.busPublished)),
		"eventbus.subs_live":            float64(c1.subsLive),

		"flow.events_per_flush":    perFlush,
		"flow.flushes":             float64(c1.flushes - c0.flushes),
		"flow.throttle_events":     float64(c1.throttles - c0.throttles),
		"flow.events_shed":         float64(c1.shed - c0.shed),
		"scinet.batches_ingested":  float64(c1.ingested - c0.ingested),
		"scinet.batches_relayed":   float64(c1.relayed - c0.relayed),
		"scinet.echoes_dropped":    float64(c1.echoes - c0.echoes),
		"scinet.interest_state":    float64(c1.interestState),
		"scinet.msgs_per_publish":  div(float64(c1.ovDelivered+c1.ovRelayed-c0.ovDelivered-c0.ovRelayed), pubs),
		"scinet.subscribe_call_us": mean("scinet.subscribe", time.Microsecond),
		"overlay.delivered":        float64(c1.ovDelivered - c0.ovDelivered),
		"overlay.relayed":          float64(c1.ovRelayed - c0.ovRelayed),

		"transport.sends":              float64(c1.sends - c0.sends),
		"transport.send_us":            div(send, float64(c1.sends-c0.sends)) / 1e3,
		"transport.send_busy_share":    div(send, wall),
		"transport.handler_us":         div(handler, float64(c1.handled-c0.handled)) / 1e3,
		"transport.handler_busy_share": div(handler, wall),
		"transport.msgs_per_batch":     div(float64(c1.sends-c0.sends), batches),
		"wire.bytes_per_delivery":      div(float64(c1.wireBytes-c0.wireBytes), deliv),
		"wire.binary_conns":            float64(c1.binaryConns),

		"rangesvc.acks_sent":        float64(c1.acks - c0.acks),
		"rangesvc.acks_piggybacked": float64(c1.piggy - c0.piggy),
		"rangesvc.delivery_drops":   float64(c1.dqDrops - c0.dqDrops),
		"rangesvc.register_ms":      mean("rangesvc.register", time.Millisecond),
		"rangesvc.submit_ms":        mean("rangesvc.submit", time.Millisecond),

		"runtime.gc_cycles":        float64(pr.rt1.numGC - pr.rt0.numGC),
		"runtime.gc_pause_ms":      float64(pr.rt1.pauseNs-pr.rt0.pauseNs) / 1e6,
		"runtime.heap_peak_mb":     pr.heapPeakMB,
		"runtime.goroutines_delta": float64(pr.rt1.goroutines - pr.rt0.goroutines),

		"trace.self_ms.server_publish":       sum("server.publish"),
		"trace.self_ms.transport_send":       sum("transport.send"),
		"trace.self_ms.transport_handler":    sum("transport.handler"),
		"trace.self_ms.scinet_control":       sum("scinet.subscribe", "scinet.unsubscribe", "scinet.submit"),
		"trace.self_ms.rangesvc_control":     sum("rangesvc.new_connector", "rangesvc.register", "rangesvc.submit", "rangesvc.deregister"),
		"trace.unexplained_cpu_share":        div(cpuNs-spanned, cpuNs),
		"trace.spans":                        float64(spans),
		"trace.spans_dropped":                float64(dropped),
		"trace.overhead_cpu_us_per_delivery": div(float64(pr.cpu)/1e3, deliv) - div(float64(base.cpu)/1e3, float64(base.got)),
		"trace.overhead_latency_p50_ms":      pr.lat.quantile(0.5) - base.lat.quantile(0.5),
	}
}

// layerUnit names the unit of a per-layer metric from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_delivery"):
		return "us"
	case strings.HasSuffix(name, "_ms"), strings.HasSuffix(name, "_ms_max"), strings.Contains(name, ".self_ms."):
		return "ms"
	case strings.HasSuffix(name, "_eps"):
		return "1/s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "_share"), strings.HasSuffix(name, "_ratio"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_delivery"):
		return "B"
	case strings.HasPrefix(name, "flow.events_per"), strings.HasSuffix(name, "_per_publish"), strings.HasSuffix(name, "_per_batch"):
		return "ratio"
	}
	return "count"
}
