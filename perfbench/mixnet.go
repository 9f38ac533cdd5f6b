package main

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"decoupling/internal/mixnet"
	"decoupling/internal/nettransport"
	"decoupling/internal/transport"
)

const (
	// mixRate keeps the cascade's mixes mostly flushing on full batches
	// (8 arrivals take 16 ms on average, well inside the 100 ms timeout)
	// without queueing behind the CPU.
	mixRate      = 500.0
	mixRelays    = 3
	mixThreshold = 8
	mixTimeout   = 100 * time.Millisecond
	mixBodyLen   = 200
	// onionTag is the frame tag mixnet.Sender puts before an onion; the
	// generator builds onions itself and injects them the same way.
	onionTag byte = 'O'
)

// mixBodies are the messages of one mixnet-open phase: an id prefix and
// seeded random bytes, so a delivered body identifies its op and shows
// whether it arrived intact.
func mixBodies(seed int64, n int) [][]byte {
	rng := rand.New(rand.NewSource(seed + 2))
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, mixBodyLen)
		copy(b, fmt.Sprintf("m%08d|", i))
		rng.Read(b[10:])
		out[i] = b
	}
	return out
}

func bodyID(b []byte) (int, bool) {
	if len(b) < 10 || b[0] != 'm' || b[9] != '|' {
		return 0, false
	}
	id, err := strconv.Atoi(string(b[1:9]))
	return id, err == nil
}

// cascade is the mixnet deployment: three mixes and a receiver on one
// nettransport TCP network, ledger off.
type cascade struct {
	nt    *nettransport.Net
	net   transport.Transport // nt, or nt wrapped for tracing
	wrap  *tracedNet          // nil when untraced
	mixes []*mixnet.Mix
	route []mixnet.NodeInfo
	rcv   *mixnet.Receiver
}

func newCascade(seed int64, tr *tracer, d delays) (*cascade, error) {
	c := &cascade{nt: nettransport.New(nettransport.Options{Mode: nettransport.ModeTCP, Seed: seed, DisableCapture: true})}
	c.net = c.nt
	if tr != nil {
		c.wrap = newTracedNet(c.nt, tr, d.send)
		c.net = c.wrap
	}
	for i := 1; i <= mixRelays; i++ {
		m, err := mixnet.NewMix(c.net, fmt.Sprintf("Relay %d", i), transport.Addr(fmt.Sprintf("relay%d", i)), mixThreshold, mixTimeout, nil)
		if err != nil {
			c.nt.Close()
			return nil, err
		}
		c.mixes = append(c.mixes, m)
		c.route = append(c.route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(c.net, "Receiver", "receiver", false, nil)
	if err != nil {
		c.nt.Close()
		return nil, err
	}
	c.rcv = rcv
	return c, nil
}

// inject runs op i: build the onion and hand it to the first mix.
func (c *cascade) inject(tr *tracer, i int, body []byte) error {
	root, start := tr.newID(), tr.now()
	defer tr.add(root, 0, int64(i), "mixnet.inject", start)
	bid, bstart := tr.newID(), tr.now()
	onion, err := mixnet.BuildOnion(c.route, c.rcv.Info(), body, 0)
	tr.add(bid, root, int64(i), "mixnet.build_onion", bstart)
	if err != nil {
		return err
	}
	frame := append([]byte{onionTag}, onion...)
	if c.wrap != nil {
		return c.wrap.send(c.nt, nil, root, int64(i), "gen", c.route[0].Addr, frame)
	}
	return c.nt.Send("gen", c.route[0].Addr, frame)
}

func runMixnet(cfg config) (*outcome, error) {
	due, err := schedule(cfg.seed, cmp.Or(cfg.rate, mixRate), cfg.window)
	if err != nil {
		return nil, err
	}
	bodies := mixBodies(cfg.seed, len(due))

	setups := make([]time.Duration, setupReps)
	var c *cascade
	for r := range setups {
		if c != nil {
			c.nt.Close()
		}
		settle()
		t0 := time.Now()
		c, err = newCascade(cfg.seed, cfg.tr, cfg.delays)
		setups[r] = time.Since(t0)
		if err != nil {
			return nil, err
		}
	}
	defer c.nt.Close()

	ph := startPhase()
	baseNT := c.nt.Now()
	base := time.Now()
	timings := openLoop(base, due, cfg.workers, func(i int) error { return c.inject(cfg.tr, i, bodies[i]) })
	c.nt.Run() // wait for every frame and timer, so the tails flush
	ps := ph.stop()

	o := newOutcome()
	o.x25519PerOp = 12
	got := make([]int, len(due))
	var done []sample
	for _, r := range c.rcv.Inbox() {
		id, ok := bodyID(r.Body)
		if !ok || id >= len(due) {
			o.problem("receiver got a message with no valid id")
			continue
		}
		got[id]++
		switch {
		case got[id] > 1:
			o.problem("message %d delivered %d times", id, got[id])
		case !bytes.Equal(r.Body, bodies[id]):
			o.problem("message %d arrived altered", id)
		case timings[id].err == nil:
			done = append(done, sample{due[id], ms(r.Time - baseNT - due[id])})
		}
	}
	for i, n := range got {
		if timings[i].err != nil {
			o.problem("message %d: send: %v", i, timings[i].err)
		} else if n == 0 {
			o.problem("message %d never delivered", i)
		}
	}
	o.setE2E(setups, len(due), done, cfg.window, ps)
	o.setGen(timings)
	dropped := c.rcv.Dropped()
	for _, m := range c.mixes {
		_, d := m.Stats()
		dropped += d
	}
	o.layer["mixnet.dropped"] = float64(dropped)
	o.layer["nettransport.lost"] = float64(c.nt.Lost())

	if cfg.tr != nil {
		offset := int64(base.Sub(cfg.tr.base))
		spans := cfg.tr.all()
		if err := checkSegments(spans, func(req int64) int64 { return offset + int64(due[req]) }); err != nil {
			o.problem("trace: %v", err)
		}
		for _, p := range c.wrap.check() {
			o.problem("trace: %s", p)
		}
		c.wrap.report(o, spans, len(done))
	}
	return o, nil
}

// tracedNet is the transport.Transport the traced phase hands to
// mixnet.NewMix and NewReceiver. It times every Send and every handler
// call, matches each frame from its Send to the handler it reaches by a
// hash of its bytes, and keeps per-node batch accounting: which
// arrivals a flush carried out and whether a timer or a full batch
// triggered it.
type tracedNet struct {
	transport.Transport
	tr    *tracer
	delay time.Duration

	mu       sync.Mutex
	inflight map[uint64]int64 // frame hash → when its Send returned
	hops     []float64        // µs from Send return to handler start
	stray    int              // handler calls no Send accounts for
	nodes    []*nodeStats
}

// nodeStats is one node's accounting. Its handler and its timers run
// serialized on the node's dispatcher; mu orders them with the report.
type nodeStats struct {
	addr     transport.Addr
	mix      bool // false for the receiver
	span     string
	mu       sync.Mutex
	cur      int64   // span of the handler call or timer running now
	flushAt  int64   // first Send of the current call, -1 before it
	pending  []int64 // arrival times not yet flushed
	arrivals int
	sends    int
	flushed  int
	waits    []float64 // ms from arrival to the flush that carried it
	flushes  int
	timeouts int
}

func newTracedNet(inner transport.Transport, tr *tracer, delay time.Duration) *tracedNet {
	return &tracedNet{Transport: inner, tr: tr, delay: delay, inflight: map[uint64]int64{}}
}

// send times one Send on inner, nested under parent, and notes it for
// the node ns that made it (nil for the generator).
func (w *tracedNet) send(inner transport.Transport, ns *nodeStats, parent, req int64, src, dst transport.Addr, payload []byte) error {
	id, start := w.tr.newID(), w.tr.now()
	if ns != nil {
		ns.noteSend(start)
	}
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	key := payloadKey(payload)
	// The frame can reach its handler before Send returns; note it as in
	// flight first and stamp the return time after.
	w.mu.Lock()
	w.inflight[key] = -1
	w.mu.Unlock()
	err := inner.Send(src, dst, payload)
	w.tr.add(id, parent, req, "nettransport.send", start)
	end := w.tr.now()
	w.mu.Lock()
	if err != nil {
		delete(w.inflight, key)
	} else if t, ok := w.inflight[key]; ok && t == -1 {
		w.inflight[key] = end
	}
	w.mu.Unlock()
	return err
}

// arrived matches a delivered frame to its Send and records the hop.
func (w *tracedNet) arrived(payload []byte, at int64) {
	key := payloadKey(payload)
	w.mu.Lock()
	defer w.mu.Unlock()
	sent, ok := w.inflight[key]
	if !ok {
		w.stray++
		return
	}
	delete(w.inflight, key)
	if sent >= 0 {
		w.hops = append(w.hops, us(time.Duration(at-sent)))
	}
}

func (w *tracedNet) Register(addr transport.Addr, h transport.Handler) {
	ns := &nodeStats{addr: addr, mix: addr != "receiver", span: "mixnet.receiver.handle", flushAt: -1}
	if ns.mix {
		ns.span = "mixnet.mix.handle"
	}
	w.mu.Lock()
	w.nodes = append(w.nodes, ns)
	w.mu.Unlock()
	w.Transport.Register(addr, func(t transport.Transport, msg transport.Message) {
		start := w.tr.now()
		w.arrived(msg.Payload, start)
		id := w.tr.newID()
		ns.begin(id, start, ns.mix)
		h(&tracedView{w: w, ns: ns, Transport: t}, msg)
		ns.end(false)
		w.tr.add(id, 0, -1, ns.span, start)
	})
}

func (ns *nodeStats) begin(span, at int64, arrival bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.cur, ns.flushAt = span, -1
	if arrival {
		ns.pending = append(ns.pending, at)
		ns.arrivals++
	}
}

func (ns *nodeStats) noteSend(at int64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.sends++
	if ns.flushAt < 0 {
		ns.flushAt = at
	}
}

// end closes a handler call or timer; if it sent anything it was a
// flush, which carried every pending arrival out.
func (ns *nodeStats) end(timer bool) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.flushAt < 0 || len(ns.pending) == 0 {
		return false
	}
	for _, a := range ns.pending {
		ns.waits = append(ns.waits, ms(time.Duration(ns.flushAt-a)))
	}
	ns.flushes++
	ns.flushed += len(ns.pending)
	ns.pending = ns.pending[:0]
	if timer {
		ns.timeouts++
	}
	return true
}

// tracedView is the Transport a node's handler runs against: the node's
// own view, with Send timed and timers wrapped so a timeout flush is
// seen as one.
type tracedView struct {
	transport.Transport
	w  *tracedNet
	ns *nodeStats
}

func (v *tracedView) Send(src, dst transport.Addr, payload []byte) error {
	return v.w.send(v.Transport, v.ns, v.ns.cur, -1, src, dst, payload)
}

func (v *tracedView) After(delay time.Duration, fn func()) {
	v.Transport.After(delay, func() {
		start := v.w.tr.now()
		id := v.w.tr.newID()
		v.ns.begin(id, start, false)
		fn()
		if v.ns.end(true) {
			v.w.tr.add(id, 0, -1, "mixnet.mix.timeout_flush", start)
		}
	})
}

// check asserts that the frames add up: every Send reached exactly one
// handler, and every mix sent out exactly the arrivals it flushed.
func (w *tracedNet) check() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	if len(w.inflight) > 0 || w.stray > 0 {
		out = append(out, fmt.Sprintf("%d frames sent but never handled, %d handled but never sent", len(w.inflight), w.stray))
	}
	for _, ns := range w.nodes {
		ns.mu.Lock()
		if ns.mix && (ns.flushed != ns.arrivals || ns.sends != ns.flushed) {
			out = append(out, fmt.Sprintf("%s: %d arrivals, %d flushed, %d sent", ns.addr, ns.arrivals, ns.flushed, ns.sends))
		}
		ns.mu.Unlock()
	}
	return out
}

// report sets the span-derived mixnet and transport layer metrics.
func (w *tracedNet) report(o *outcome, spans []span, done int) {
	self := selfTimes(spans)
	var sendUs, buildUs []float64
	for _, s := range spans {
		switch s.Name {
		case "nettransport.send":
			sendUs = append(sendUs, us(s.dur()))
		case "mixnet.build_onion":
			buildUs = append(buildUs, us(s.dur()))
		}
	}
	o.layer["mixnet.build_onion_us"] = median(buildUs)
	o.layer["nettransport.send_us"] = median(sendUs)
	o.layer["mixnet.mix_handle_us"] = medianSelfUs(spans, self, "mixnet.mix.handle")
	o.layer["mixnet.receiver_handle_us"] = medianSelfUs(spans, self, "mixnet.receiver.handle")
	o.layer["nettransport.frames_per_op"] = float64(len(sendUs)) / float64(max(done, 1))

	w.mu.Lock()
	o.layer["nettransport.hop_us"] = median(w.hops)
	nodes := w.nodes
	w.mu.Unlock()
	var waits []float64
	var flushes, items, timeouts int
	for _, ns := range nodes {
		ns.mu.Lock()
		waits = append(waits, ns.waits...)
		flushes += ns.flushes
		items += ns.flushed
		timeouts += ns.timeouts
		ns.mu.Unlock()
	}
	o.layer["mixnet.queue_wait_ms"] = mean(waits)
	if flushes > 0 {
		o.layer["mixnet.batch_size"] = float64(items) / float64(flushes)
		o.layer["mixnet.timeout_flush_frac"] = float64(timeouts) / float64(flushes)
	}
}
