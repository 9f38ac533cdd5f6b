package experiments

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/mixnet"
	"decoupling/internal/odns"
	"decoupling/internal/odoh"
	"decoupling/internal/resilience"
	"decoupling/internal/simnet"
)

// AuditScenario is a runnable system reproduction packaged for the
// provenance audit CLI: an expected model plus a runner that returns
// the quiesced ledger to audit. The table experiments reuse the same
// runners, so `decouple audit` explains exactly the runs the tables
// measure.
type AuditScenario struct {
	ID    string
	Title string
	// Expected returns the paper's model for the scenario.
	Expected func() *core.System
	// Run executes the scenario and returns its ledger. parallel splits
	// client load across that many goroutines where the protocol is
	// concurrency-safe; scenarios driven by the deterministic simulator
	// ignore it. Audit output is byte-identical across parallel values.
	Run func(ctx Ctx, parallel int) (*ledger.Ledger, error)
	// RunFaults runs the scenario under an injected fault plan, with the
	// protocol clients wrapped in the resilience layer (fail-closed).
	// The simulator-driven scenario applies the plan to its network; the
	// HTTP-shaped scenarios evaluate crash/partition/loss windows on a
	// deterministic logical clock (fault node names: odoh "proxy", odns
	// "oblivious"; latency spikes are simulator-only). Audit output is
	// byte-identical for a fixed plan.
	RunFaults func(ctx Ctx, parallel int, plan *simnet.FaultPlan) (*ledger.Ledger, error)
}

// AuditScenarios lists every scenario the audit CLI can run, in id
// order. All three are in-process and cross-run deterministic under
// audit rendering (canonical ordering + handle aliasing + redaction).
func AuditScenarios() []AuditScenario {
	return []AuditScenario{
		{
			ID:        "mixnet",
			Title:     "Chaum mix cascade (3 mixes, batch 4)",
			Expected:  func() *core.System { return core.Mixnet(3) },
			Run:       runMixnetScenario,
			RunFaults: runMixnetScenarioFaults,
		},
		{
			ID:        "odns",
			Title:     "Oblivious DNS (encrypted-name variant)",
			Expected:  core.ObliviousDNS,
			Run:       runODNSScenario,
			RunFaults: runODNSScenarioFaults,
		},
		{
			ID:        "odoh",
			Title:     "Oblivious DoH (RFC 9230 shape)",
			Expected:  core.ObliviousDNS,
			Run:       runODoHScenario,
			RunFaults: runODoHScenarioFaults,
		},
	}
}

// FindAuditScenario returns the scenario with the given id.
func FindAuditScenario(id string) (AuditScenario, bool) {
	for _, s := range AuditScenarios() {
		if s.ID == id {
			return s, true
		}
	}
	return AuditScenario{}, false
}

// auditDNSNames is the query workload shared by the DNS scenarios.
var auditDNSNames = []string{"www.example.com", "mail.example.com", "secret.example.com", "api.example.com"}

const auditDNSClients = 20

func auditZone() *dns.Zone {
	z := dns.NewZone("example.com")
	for i, n := range auditDNSNames {
		z.Add(dnswire.A(n, 300, [4]byte{192, 0, 2, byte(i)}))
	}
	return z
}

// registerDNSGroundTruth registers the client identities and query
// names (sensitive) plus the infrastructure names (non-sensitive, so
// audit reports render them unredacted) for a DNS scenario driving
// the given number of clients.
func registerDNSGroundTruth(cls *ledger.Classifier, clients int, infra ...string) {
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("client-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(auditDNSNames[i%len(auditDNSNames)]), who, "", core.Sensitive)
	}
	for _, name := range infra {
		cls.RegisterIdentity(name, "", "", core.NonSensitive)
	}
}

// forEachClient fans a loop over `clients` client indices out over
// `parallel` goroutines (at least 1) and returns the first error.
func forEachClient(parallel, clients int, fn func(i int) error) error {
	if parallel < 1 {
		parallel = 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, parallel)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < clients; i += parallel {
				if err := fn(i); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// runODoHScenario drives the §3.2.2 ODoH reproduction: clients
// HPKE-encrypt queries through the proxy to the target, which resolves
// via the origin. This is the same run E4's ODoH half measures.
func runODoHScenario(ctx Ctx, parallel int) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	lg.Instrument(tel)
	registerDNSGroundTruth(cls, auditDNSClients, odoh.ProxyName, odoh.TargetName, "Origin")

	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg}
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		return nil, err
	}
	target.Instrument(tel)
	target.InstrumentWire(ctx.Wire)
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.Instrument(tel)
	proxy.InstrumentWire(ctx.Wire)
	origin.Wire = ctx.Wire
	keyID, pub := target.KeyConfig()

	defer tel.Phase("odoh")()
	err = forEachClient(parallel, auditDNSClients, func(i int) error {
		who := fmt.Sprintf("client-%d", i)
		c := odoh.NewClient(who, keyID, pub)
		c.InstrumentWire(ctx.Wire)
		_, err := c.Query(auditDNSNames[i%len(auditDNSNames)], dnswire.TypeA, proxy.Forward)
		return err
	})
	return lg, err
}

// runODNSScenario drives the §3.2.2 ODNS reproduction: clients send
// encrypted-name queries through a recursive resolver to the oblivious
// resolver, which decrypts and resolves via the origin. Same run as
// E4's ODNS half.
func runODNSScenario(ctx Ctx, parallel int) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	lg.Instrument(tel)
	registerDNSGroundTruth(cls, auditDNSClients, "Resolver", odns.ObliviousResolverName, "Origin")

	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg}
	oblivious, err := odns.NewObliviousResolver(origin, lg)
	if err != nil {
		return nil, err
	}
	recursive := dns.NewResolver("Resolver", []dns.Authority{oblivious, origin}, lg, nil)
	origin.Wire = ctx.Wire
	oblivious.InstrumentWire(ctx.Wire)
	recursive.Wire = ctx.Wire

	defer tel.Phase("odns")()
	err = forEachClient(parallel, auditDNSClients, func(i int) error {
		who := fmt.Sprintf("client-%d", i)
		c := odns.NewClient(who, oblivious.PublicKey(), recursive)
		c.InstrumentWire(ctx.Wire)
		_, err := c.Query(auditDNSNames[i%len(auditDNSNames)], dnswire.TypeA)
		return err
	})
	return lg, err
}

// runMixnetScenario drives a 3-mix cascade with batch threshold 4 and
// 8 senders over the seeded simulator. The ledger runs on the virtual
// clock, so audit evidence carries real virtual timestamps. parallel
// is ignored: the simulator is single-threaded and already
// deterministic.
func runMixnetScenario(ctx Ctx, _ int) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	net := ctx.NewRunner(2)
	defer net.Close()
	net.Instrument(tel)
	ctx.Wire.SetClock(net.Now)
	lg := ledger.NewRetaining(cls, net.Now)
	lg.Instrument(tel)

	var route []mixnet.NodeInfo
	for i := 1; i <= 3; i++ {
		addr := fmt.Sprintf("mix%d", i)
		cls.RegisterIdentity(addr, "", "", core.NonSensitive)
		m, err := mixnet.NewMix(net, fmt.Sprintf("Mix %d", i), simnet.Addr(addr), 4, 0, lg)
		if err != nil {
			return nil, err
		}
		m.Instrument(tel)
		m.InstrumentWire(ctx.Wire)
		route = append(route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(net, "Receiver", "receiver", false, lg)
	if err != nil {
		return nil, err
	}
	rcv.InstrumentWire(ctx.Wire)

	defer tel.Phase("forward")()
	for i := 0; i < 8; i++ {
		sender := fmt.Sprintf("sender%02d", i)
		msg := fmt.Sprintf("private message %02d", i)
		cls.RegisterIdentity(sender, sender, "", core.Sensitive)
		cls.RegisterData(msg, sender, "", core.Sensitive)
		s := &mixnet.Sender{Addr: simnet.Addr(sender), Wire: ctx.Wire}
		if err := s.Send(net, route, rcv.Info(), []byte(msg)); err != nil {
			return nil, err
		}
	}
	net.Run()
	if got := len(rcv.Inbox()); got != 8 {
		return nil, fmt.Errorf("mixnet scenario: delivered %d of 8 messages", got)
	}
	return lg, nil
}

// scenarioHopDelay is the logical per-hop clock step the HTTP-shaped
// fault runners use to place query i / attempt j inside a fault
// plan's windows: the event happens at (i+j) * scenarioHopDelay.
const scenarioHopDelay = 10 * time.Millisecond

// faultGate evaluates one HTTP-shaped hop attempt against a fault
// plan: a crash of node or a partition of src->node fails the attempt
// fast; active loss fails it with a deterministic splitmix64 draw
// keyed by (i, j) — never a shared RNG, so parallel clients cannot
// perturb each other. Latency spikes have no HTTP equivalent here and
// are ignored (simulator-only).
func faultGate(plan *simnet.FaultPlan, src, node simnet.Addr, i, j int) error {
	t := time.Duration(i+j) * scenarioHopDelay
	if plan.CrashedAt(node, t) {
		return fmt.Errorf("scenario fault: %s at t=%s: %w", node, t, simnet.ErrNodeDown)
	}
	if plan.PartitionedAt(src, node, t) {
		return fmt.Errorf("scenario fault: link %s->%s partitioned at t=%s", src, node, t)
	}
	if l := plan.LossAt(src, node, t); l > 0 && chaosFrac(0xFA017, uint64(i)<<16|uint64(j)) < l {
		return fmt.Errorf("scenario fault: link %s->%s dropped attempt %d at t=%s", src, node, j, t)
	}
	return nil
}

// runODoHScenarioFaults is runODoHScenario with the client→proxy hop
// gated by the plan (fault node "proxy") and the clients wrapped in
// the fail-closed resilience layer. Each client's logical clock is a
// pure function of (client index, attempt), so the run stays
// parallel-safe and byte-identical for a fixed plan.
func runODoHScenarioFaults(ctx Ctx, parallel int, plan *simnet.FaultPlan) (*ledger.Ledger, error) {
	return odohFaultsRun(ctx, parallel, auditDNSClients, plan, false)
}

// odohFaultsRun is the parameterized core behind runODoHScenarioFaults
// and the schedule explorer's ODoH probes: a configurable client count
// (so counterexamples shrink) and, when failOpen is set, the E16
// misconfiguration — a direct-resolver fallback that re-couples the
// proxy operator's knowledge whenever the plan exhausts the oblivious
// path. failOpen is the explorer's planted violation; every other
// caller stays fail-closed.
func odohFaultsRun(ctx Ctx, parallel, clients int, plan *simnet.FaultPlan, failOpen bool) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	lg.Instrument(tel)
	registerDNSGroundTruth(cls, clients, odoh.ProxyName, odoh.TargetName, "Origin")

	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg}
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		return nil, err
	}
	target.Instrument(tel)
	target.InstrumentWire(ctx.Wire)
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.Instrument(tel)
	proxy.InstrumentWire(ctx.Wire)
	origin.Wire = ctx.Wire
	keyID, pub := target.KeyConfig()

	// The fail-open escape hatch mirrors e16Run: a plain recursive
	// resolver registered under the proxy's own role, so falling back
	// hands the proxy operator plaintext names.
	var direct *dns.Resolver
	if failOpen {
		direct = dns.NewResolver(odoh.ProxyName, []dns.Authority{origin}, lg, nil)
	}

	defer tel.Phase("odoh-faults")()
	err = forEachClient(parallel, clients, func(i int) error {
		who := fmt.Sprintf("client-%d", i)
		c := odoh.NewClient(who, keyID, pub)
		attempt := 0 // per-client, so parallel clients share nothing
		rc := &odoh.ResilientClient{
			Client: c, Policy: resilience.Default("odoh"),
			Forwards: []odoh.ForwardFunc{func(clientAddr string, raw []byte) ([]byte, error) {
				j := attempt
				attempt++
				if gerr := faultGate(plan, "client", "proxy", i, j); gerr != nil {
					return nil, gerr
				}
				return proxy.Forward(clientAddr, raw)
			}},
		}
		rc.Instrument(tel)
		if failOpen {
			// The ResilientClient only consults Fallback under an
			// explicit FailOpen policy — the misconfiguration takes
			// both the mode AND the hook, exactly like e16Run.
			rc.Policy.Mode = resilience.FailOpen
			rc.Fallback = func(name string, qtype dnswire.Type) (*dnswire.Message, error) {
				resp := direct.Resolve(who, dnswire.NewQuery(1, name, qtype))
				if resp.RCode != dnswire.RCodeNoError {
					return nil, fmt.Errorf("direct fallback failed: rcode=%v", resp.RCode)
				}
				return resp, nil
			}
		}
		// Fail-closed: a client inside a permanent fault window errors
		// out (wrapping resilience.ErrExhausted) rather than bypassing
		// the proxy; the audit then explains the healthy clients.
		_, qerr := rc.Query(auditDNSNames[i%len(auditDNSNames)], dnswire.TypeA)
		if qerr != nil && !errors.Is(qerr, resilience.ErrExhausted) {
			return qerr
		}
		return nil
	})
	return lg, err
}

// runODNSScenarioFaults is runODNSScenario with the recursive→oblivious
// hop gated by the plan (fault node "oblivious"). The gate's logical
// clock is the shared upstream call counter, so this runner is
// internally sequential regardless of parallel — the cost of keeping
// audits byte-identical.
func runODNSScenarioFaults(ctx Ctx, _ int, plan *simnet.FaultPlan) (*ledger.Ledger, error) {
	return odnsFaultsRun(ctx, auditDNSClients, plan)
}

// odnsFaultsRun is the parameterized core behind runODNSScenarioFaults
// and the explorer's ODNS probe.
func odnsFaultsRun(ctx Ctx, clients int, plan *simnet.FaultPlan) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	lg.Instrument(tel)
	registerDNSGroundTruth(cls, clients, "Resolver", odns.ObliviousResolverName, "Origin")

	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{auditZone()}, Ledger: lg}
	oblivious, err := odns.NewObliviousResolver(origin, lg)
	if err != nil {
		return nil, err
	}
	gated := &gatedAuthority{inner: oblivious, plan: plan}
	recursive := dns.NewResolver("Resolver", []dns.Authority{gated, origin}, lg, nil)

	defer tel.Phase("odns-faults")()
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("client-%d", i)
		c := odns.NewClient(who, oblivious.PublicKey(), recursive)
		_, qerr := c.QueryResilient(auditDNSNames[i%len(auditDNSNames)], dnswire.TypeA, resilience.Default("odns"), tel, nil)
		if qerr != nil && !errors.Is(qerr, resilience.ErrExhausted) {
			return nil, qerr
		}
	}
	return lg, nil
}

// gatedAuthority fails upstream queries whose position on the logical
// clock falls inside the plan's fault windows for node "oblivious".
type gatedAuthority struct {
	inner dns.Authority
	plan  *simnet.FaultPlan
	calls int
}

func (g *gatedAuthority) Serves(name string) bool { return g.inner.Serves(name) }

func (g *gatedAuthority) Handle(from string, q *dnswire.Message) *dnswire.Message {
	n := g.calls
	g.calls++
	if err := faultGate(g.plan, "resolver", "oblivious", n, 0); err != nil {
		r := q.Reply()
		r.RCode = dnswire.RCodeServFail
		return r
	}
	return g.inner.Handle(from, q)
}

// runMixnetScenarioFaults is runMixnetScenario with the plan applied
// to the simulator and the senders driven through RetryAsync on the
// virtual clock (fail-closed; staggered sends so retries interleave
// deterministically). Unlike the healthy runner it tolerates losses —
// the audit's job under faults is to explain what WAS observed.
func runMixnetScenarioFaults(ctx Ctx, _ int, plan *simnet.FaultPlan) (*ledger.Ledger, error) {
	return mixnetFaultsRun(ctx, 8, plan, true)
}

// mixnetFaultsRun is the parameterized core behind
// runMixnetScenarioFaults and the explorer's mixnet probe. strict
// keeps the audit CLI's guard that a plan severe enough to silence
// every sender is an error; the explorer passes false because fault
// synthesis is allowed to find such plans (silence leaks nothing).
func mixnetFaultsRun(ctx Ctx, senders int, plan *simnet.FaultPlan, strict bool) (*ledger.Ledger, error) {
	tel := ctx.Tel
	cls := ledger.NewClassifier()
	net := ctx.NewNet(2)
	net.Instrument(tel)
	lg := ledger.NewRetaining(cls, net.Now)
	lg.Instrument(tel)

	var route []mixnet.NodeInfo
	for i := 1; i <= 3; i++ {
		addr := fmt.Sprintf("mix%d", i)
		cls.RegisterIdentity(addr, "", "", core.NonSensitive)
		m, err := mixnet.NewMix(net, fmt.Sprintf("Mix %d", i), simnet.Addr(addr), 4, 0, lg)
		if err != nil {
			return nil, err
		}
		m.Instrument(tel)
		route = append(route, m.Info())
	}
	rcv, err := mixnet.NewReceiver(net, "Receiver", "receiver", false, lg)
	if err != nil {
		return nil, err
	}
	net.ApplyFaults(plan)

	defer tel.Phase("forward-faults")()
	p := resilience.Default("mixnet")
	p.Timeout = 80 * time.Millisecond
	for i := 0; i < senders; i++ {
		i := i
		sender := fmt.Sprintf("sender%02d", i)
		msg := fmt.Sprintf("private message %02d", i)
		cls.RegisterIdentity(sender, sender, "", core.Sensitive)
		cls.RegisterData(msg, sender, "", core.Sensitive)
		s := &mixnet.Sender{Addr: simnet.Addr(sender)}
		net.After(time.Duration(i)*time.Millisecond, func() {
			resilience.RetryAsync(net, tel, p, uint64(0xA0D17<<8)|uint64(i),
				func(int) error { return s.Send(net, route, rcv.Info(), []byte(msg)) },
				func() bool {
					for _, got := range rcv.Inbox() {
						if string(got.Body) == msg {
							return true
						}
					}
					return false
				},
				nil)
		})
	}
	net.Run()
	if strict && len(rcv.Inbox()) == 0 && !plan.Empty() {
		return nil, fmt.Errorf("mixnet fault scenario: nothing delivered (plan too severe to audit)")
	}
	return lg, nil
}
