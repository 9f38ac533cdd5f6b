package simnet

import (
	"bytes"
	"strings"
	"testing"

	"decoupling/internal/telemetry"
)

// TestInstrumentedDelivery checks the simulator's telemetry contract:
// each delivery feeds the link counters and the virtual latency
// histogram, measured from the virtual send time.
func TestInstrumentedDelivery(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	tel := telemetry.New(m)
	n.Instrument(tel)

	// b relays everything it receives to c: a → b → c is a 2-hop chain.
	n.Register("b", func(n Transport, msg Message) {
		if err := n.Send("b", "c", msg.Payload); err != nil {
			t.Error(err)
		}
	})
	n.Register("c", func(Transport, Message) {})
	if err := n.Send("a", "b", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if delivered := n.Run(); delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}

	// Default link: 10ms per hop, and the second hop is sent only when
	// the first is delivered — each link's latency histogram holds one
	// 10ms observation.
	var buf bytes.Buffer
	if err := m.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		telemetry.MetricSimnetLatency + `_sum{dst="b",src="a"} 0.01`,
		telemetry.MetricSimnetLatency + `_sum{dst="c",src="b"} 0.01`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}

	total := 0.0
	for _, sv := range m.CounterSeries(telemetry.MetricSimnetMessages) {
		total += sv.Value
	}
	if total != 2 {
		t.Errorf("message counter total = %v, want 2", total)
	}
	for _, sv := range m.CounterSeries(telemetry.MetricSimnetBytes) {
		if sv.Value != float64(len("hello")) {
			t.Errorf("bytes counter %v = %v, want %d", sv.Labels, sv.Value, len("hello"))
		}
	}
}

// TestInstrumentedLoss checks dropped datagrams feed the lost counter
// and no delivery counter.
func TestInstrumentedLoss(t *testing.T) {
	n := New(1)
	m := telemetry.NewMetrics()
	tel := telemetry.New(m)
	n.Instrument(tel)
	n.Register("b", func(Transport, Message) {})
	n.SetLink("a", "b", Link{Loss: 1})
	for i := 0; i < 5; i++ {
		if err := n.Send("a", "b", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if delivered := n.Run(); delivered != 0 {
		t.Fatalf("delivered = %d, want 0 at loss 1.0", delivered)
	}
	lost := m.CounterSeries(telemetry.MetricSimnetLost)
	if len(lost) != 1 || lost[0].Value != 5 {
		t.Errorf("lost counter = %+v, want one series at 5", lost)
	}
	if got := m.CounterSeries(telemetry.MetricSimnetMessages); len(got) != 0 {
		t.Errorf("dropped datagrams counted as delivered: %+v", got)
	}
}

// TestUninstrumentedRunUnchanged: a network without telemetry must
// behave exactly as before — this pins the nil-check-only contract.
func TestUninstrumentedRunUnchanged(t *testing.T) {
	n := New(1)
	got := 0
	n.Register("b", func(Transport, Message) { got++ })
	for i := 0; i < 3; i++ {
		n.Send("a", "b", []byte("x"))
	}
	if delivered := n.Run(); delivered != 3 || got != 3 {
		t.Fatalf("delivered=%d handled=%d, want 3/3", delivered, got)
	}
}

// BenchmarkDeliveryUninstrumented vs BenchmarkDeliveryInstrumented:
// the disabled-telemetry delivery loop must stay within noise of the
// pre-telemetry baseline (one nil check per event); the instrumented
// variant quantifies the opt-in cost.
func BenchmarkDeliveryUninstrumented(b *testing.B) {
	benchDelivery(b, nil)
}

func BenchmarkDeliveryInstrumented(b *testing.B) {
	benchDelivery(b, telemetry.New(telemetry.NewMetrics()))
}

func benchDelivery(b *testing.B, tel *telemetry.Telemetry) {
	n := New(1)
	n.SetDefaultLink(Link{})
	n.Instrument(tel)
	n.Register("b", func(Transport, Message) {})
	payload := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Send("a", "b", payload); err != nil {
			b.Fatal(err)
		}
		n.Run()
	}
}
