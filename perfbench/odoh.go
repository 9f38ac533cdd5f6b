package main

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
	"decoupling/internal/workload"
)

const (
	// odohRate is about half of what two connections of about 1ms
	// service time each can carry, so queues stay short and latency
	// measures service time, not backlog.
	odohRate  = 1000.0
	odohNames = 1000
	// setupReps is how many times a run sets its system up; setup_s is
	// the median, and the last set-up serves the run.
	setupReps = 31
	// connsPerHop bounds the client connections on each HTTP hop.
	connsPerHop = 2
)

// odohInputs are the generated inputs of one odoh-open phase.
type odohInputs struct {
	due   []time.Duration
	users []string // the churned client issuing each query
	names []string
	zone  []string // every name the zone serves
}

func odohWorkload(seed int64, rate float64, window time.Duration) (*odohInputs, error) {
	due, err := schedule(seed, rate, window)
	if err != nil {
		return nil, err
	}
	browsing, err := workload.NewBrowsing(seed, odohNames, 1.2)
	if err != nil {
		return nil, err
	}
	sessions, err := workload.NewSessions(seed+1, 3, 0.8)
	if err != nil {
		return nil, err
	}
	in := &odohInputs{due: due, users: make([]string, len(due)), names: make([]string, len(due)), zone: browsing.Names}
	user, left := 0, sessions.Next()
	for i := range due {
		if workload.Churned(left) {
			user, left = user+1, sessions.Next()
		}
		left--
		in.users[i] = fmt.Sprintf("client%06d", user)
		in.names[i] = browsing.Next(user)
	}
	return in, nil
}

// addrOf is the A record the zone holds for its i-th name.
func addrOf(i int) [4]byte { return [4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)} }

// odohDeployment is the real two-hop deployment: generator → proxy
// over loopback HTTP, proxy → target over loopback HTTP, target →
// authoritative server in process. The ledger records what each party
// sees.
type odohDeployment struct {
	lg         *ledger.Ledger
	keyID, pub []byte
	forward    odoh.ForwardFunc
	servers    []*http.Server
	serveDone  chan error
	transports []*http.Transport
	tr         *tracer
	links      *links
}

func newODoHDeployment(zoneNames []string, tr *tracer, d delays) (*odohDeployment, error) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	zone := dns.NewZone("test")
	for i, n := range zoneNames {
		if err := zone.Add(dnswire.A(n, 300, addrOf(i))); err != nil {
			return nil, err
		}
		cls.RegisterData(dnswire.CanonicalName(n), "user", "", core.Sensitive)
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}, Ledger: lg}
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		return nil, err
	}
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	dep := &odohDeployment{lg: lg, tr: tr, links: newLinks(), serveDone: make(chan error, 2)}
	dep.keyID, dep.pub = target.KeyConfig()

	targetURL, err := dep.serve(dep.wrap("odoh.target.handler", d.targetHandler, odoh.TargetHandler(target)))
	if err != nil {
		return nil, err
	}
	hop := &http.Transport{MaxConnsPerHost: connsPerHop, MaxIdleConnsPerHost: connsPerHop}
	proxyURL, err := dep.serve(dep.wrap("odoh.proxy.handler", 0, odoh.ProxyHandler(proxy, &http.Client{Transport: hop}, targetURL)))
	if err != nil {
		dep.close()
		return nil, err
	}
	// Each generator connection's local address is what the proxy sees
	// as the client: it is registered as a sensitive identity when it is
	// dialled, before any request crosses it.
	var dialer net.Dialer
	gen := &http.Transport{MaxConnsPerHost: connsPerHop, MaxIdleConnsPerHost: connsPerHop,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err == nil {
				a := c.LocalAddr().String()
				cls.RegisterIdentity(a, a, "", core.Sensitive)
			}
			return c, err
		}}
	dep.transports = []*http.Transport{hop, gen}
	dep.forward = odoh.HTTPForward(&http.Client{Transport: gen}, proxyURL)
	return dep, nil
}

// serve starts an HTTP server for h on a loopback port and returns its
// base URL.
func (d *odohDeployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	d.servers = append(d.servers, srv)
	go func() { d.serveDone <- srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// close stops the servers and waits for them to return.
func (d *odohDeployment) close() {
	for _, t := range d.transports {
		t.CloseIdleConnections()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for range d.servers {
		<-d.serveDone
	}
}

// wrap returns h, or with tracing on, h inside a span named name. The
// span joins its request by the hash of the body, which is the same
// ciphertext on both hops. delay is slept inside the span.
func (d *odohDeployment) wrap(name string, delay time.Duration, h http.Handler) http.Handler {
	if d.tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := d.tr.now()
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		key := payloadKey(body)
		up, ok := d.links.get(key)
		if !ok {
			up = link{req: -1}
		}
		id := d.tr.newID()
		d.links.put(key, link{up.req, id})
		if delay > 0 {
			time.Sleep(delay)
		}
		h.ServeHTTP(w, r)
		d.tr.add(id, up.span, up.req, name, start)
	})
}

// query runs op i: one oblivious query through both hops.
func (d *odohDeployment) query(i int, user, name string, want [4]byte) error {
	c := odoh.NewClient(user, d.keyID, d.pub)
	fwd := d.forward
	root, start := d.tr.newID(), d.tr.now()
	if d.tr != nil {
		fwd = func(addr string, raw []byte) ([]byte, error) {
			id, st := d.tr.newID(), d.tr.now()
			d.links.put(payloadKey(raw), link{int64(i), id})
			out, err := d.forward(addr, raw)
			d.tr.add(id, root, int64(i), "http.forward", st)
			return out, err
		}
	}
	resp, err := c.Query(name, dnswire.TypeA, fwd)
	d.tr.add(root, 0, int64(i), "odoh.client.query", start)
	if err != nil {
		return err
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 || !bytes.Equal(resp.Answers[0].Data, want[:]) {
		return fmt.Errorf("wrong answer for %s", name)
	}
	return nil
}

func runODoH(cfg config) (*outcome, error) {
	in, err := odohWorkload(cfg.seed, cmp.Or(cfg.rate, odohRate), cfg.window)
	if err != nil {
		return nil, err
	}
	want := make(map[string][4]byte, len(in.zone))
	for i, n := range in.zone {
		want[n] = addrOf(i)
	}

	setups := make([]time.Duration, setupReps)
	var dep *odohDeployment
	for r := range setups {
		if dep != nil {
			dep.close()
		}
		settle()
		t0 := time.Now()
		dep, err = newODoHDeployment(in.zone, cfg.tr, cfg.delays)
		setups[r] = time.Since(t0)
		if err != nil {
			return nil, err
		}
	}
	defer dep.close()

	ph := startPhase()
	base := time.Now()
	timings := openLoop(base, in.due, cfg.workers, func(i int) error {
		return dep.query(i, in.users[i], in.names[i], want[in.names[i]])
	})
	ps := ph.stop() // the live heap is taken before the verdict

	o := newOutcome()
	o.x25519PerOp = 3
	var done []sample
	for i, t := range timings {
		if t.err != nil {
			o.problem("query %d: %v", i, t.err)
			continue
		}
		done = append(done, sample{t.due, ms(t.latency())})
	}
	o.setE2E(setups, len(timings), done, cfg.window, ps)
	o.setGen(timings)

	expected := core.ObliviousDNS()
	t0 := time.Now()
	measured := dep.lg.DeriveSystem(expected)
	t1 := time.Now()
	diffs := core.CompareTuples(expected, measured)
	verdict, err := core.Analyze(measured)
	t2 := time.Now()
	for _, d := range diffs {
		o.problem("tuple diff: %s", d)
	}
	if err != nil {
		o.problem("verdict: %v", err)
	} else if !verdict.Decoupled {
		o.problem("verdict: %s", verdict)
	}
	o.info["verdict_ms"] = ms(t2.Sub(t0))
	o.layer["ledger.derive_ms"] = ms(t1.Sub(t0))
	o.layer["core.analyze_ms"] = ms(t2.Sub(t1))
	o.layer["odoh.verdict_ms"] = ms(t2.Sub(t0))
	if total := dep.lg.Stats().Total; total > 0 {
		o.layer["ledger.obs_per_op"] = float64(total) / float64(max(o.attempted-o.failed, 1))
		o.layer["ledger.bytes_per_obs"] = ps.heapGrowth / float64(total)
	}

	if cfg.tr != nil {
		spans := cfg.tr.all()
		offset := int64(base.Sub(cfg.tr.base))
		if err := checkSegments(spans, func(req int64) int64 { return offset + int64(in.due[req]) }); err != nil {
			o.problem("trace: %v", err)
		}
		perReq := make([]int, len(in.due))
		for _, s := range spans {
			if s.Req < 0 {
				o.problem("trace: span %s joined no request", s.Name)
				continue
			}
			perReq[s.Req]++
		}
		for i, n := range perReq {
			if n != 4 && timings[i].err == nil {
				o.problem("trace: request %d has %d spans, want 4", i, n)
			}
		}
		self := selfTimes(spans)
		o.layer["odoh.client_self_us"] = medianSelfUs(spans, self, "odoh.client.query")
		o.layer["http.client_hop_us"] = medianSelfUs(spans, self, "http.forward")
		o.layer["odoh.proxy_self_us"] = medianSelfUs(spans, self, "odoh.proxy.handler")
		o.layer["odoh.target_self_us"] = medianSelfUs(spans, self, "odoh.target.handler")
	}
	return o, nil
}
