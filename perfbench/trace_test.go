package main

import (
	"strings"
	"testing"
)

func TestCheckSegments(t *testing.T) {
	due := func(int64) int64 { return 0 }
	const us = 1000 // span times are in ns; the check allows 1µs of slack
	nested := []span{
		{ID: 1, Req: 0, Name: "root", Start: 10 * us, End: 100 * us},
		{ID: 2, Parent: 1, Req: 0, Name: "hop", Start: 20 * us, End: 90 * us},
		{ID: 3, Parent: 2, Req: 0, Name: "server", Start: 30 * us, End: 80 * us},
	}
	if err := checkSegments(nested, due); err != nil {
		t.Fatalf("well-nested spans: %v", err)
	}
	self := selfTimes(nested)
	if self[1] != 20*us || self[2] != 20*us || self[3] != 50*us {
		t.Fatalf("self times %v, want 20µs, 20µs, 50µs", self)
	}

	escaped := append([]span(nil), nested...)
	escaped[2].End = 200 * us // the server span outlives its parent
	if err := checkSegments(escaped, due); err == nil || !strings.Contains(err.Error(), "segments sum") {
		t.Fatalf("a child escaping its parent passed the check: %v", err)
	}
	overlap := append(append([]span(nil), nested...), span{ID: 4, Parent: 1, Req: 0, Name: "hop", Start: 50 * us, End: 95 * us})
	if err := checkSegments(overlap, due); err == nil {
		t.Fatal("overlapping siblings passed the check")
	}
}
