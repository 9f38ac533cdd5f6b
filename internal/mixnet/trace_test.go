package mixnet

import (
	"fmt"
	"slices"
	"testing"

	"decoupling/internal/simnet"
	"decoupling/internal/telemetry/wiretrace"
)

// cascadeLabels sends one message from each of senders distinct
// senders through a traced 3-mix cascade and returns the sorted set of
// critical-path segment labels.
func cascadeLabels(t *testing.T, senders int) []string {
	t.Helper()
	net := simnet.New(1)
	plane := wiretrace.New(wiretrace.ModeRotate, 1)
	plane.SetClock(net.Now)
	route, mixes, rcv := buildCascade(t, net, 3, 8, 0, false, nil)
	for _, m := range mixes {
		m.InstrumentWire(plane)
	}
	rcv.InstrumentWire(plane)
	for i := 0; i < senders; i++ {
		s := &Sender{Addr: simnet.Addr(fmt.Sprintf("sender%06d", i)), Wire: plane}
		if err := s.Send(net, route, rcv.Info(), []byte("hello")); err != nil {
			t.Fatal(err)
		}
	}
	net.Run()
	if got := len(rcv.Inbox()); got != senders {
		t.Fatalf("delivered %d of %d messages", got, senders)
	}
	paths := wiretrace.Paths(plane.Stores())
	if len(paths) != senders {
		t.Fatalf("stitched %d request paths, want %d", len(paths), senders)
	}
	var labels []string
	for _, p := range paths {
		for _, seg := range p.Segments {
			labels = append(labels, seg.Label)
		}
	}
	slices.Sort(labels)
	return slices.Compact(labels)
}

// TestCriticalPathLabelsBounded: senders share the client vantage, so
// the critical-path label set names roles, not senders, and stays the
// same size however many senders there are.
func TestCriticalPathLabelsBounded(t *testing.T) {
	small, large := cascadeLabels(t, 8), cascadeLabels(t, 64)
	if !slices.Equal(small, large) {
		t.Errorf("segment labels grow with the sender count:\n  8 senders: %q\n 64 senders: %q", small, large)
	}
	if !slices.Contains(small, wiretrace.ClientVantage+" → Mix 1") {
		t.Errorf("no client → Mix 1 segment in %q", small)
	}
}
