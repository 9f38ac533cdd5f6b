package main

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	a, err := schedule(7, 1000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(7, 1000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatal("same seed gave two different schedules")
	}
	c, err := schedule(8, 1000, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	for i, d := range a {
		if d >= 2*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("offset %d = %v is out of order or outside the window", i, d)
		}
	}
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 2s at 1000/s", n)
	}
}

// TestStallChargesQueuedRequests drives one connection against a server
// that stalls on one request. Requests due during the stall must show
// the wait in their latency, though each one is quick once sent.
func TestStallChargesQueuedRequests(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 11 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 100)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	timings := openLoop(time.Now(), due, 1, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
	for i, o := range timings {
		if o.err != nil {
			t.Fatalf("op %d: %v", i, o.err)
		}
	}
	// Op 10 stalls from about 10ms to 70ms. Op 30 is due at 30ms, so it
	// waits about 40ms for the connection and its latency says so.
	q := timings[30]
	if q.latency() < 30*time.Millisecond || q.connWait < 30*time.Millisecond {
		t.Errorf("op behind the stall: latency %v, connection wait %v; want both >= 30ms", q.latency(), q.connWait)
	}
	if sent := q.end - q.start; sent > 20*time.Millisecond {
		t.Errorf("op behind the stall took %v once sent; the double stalls only op 10", sent)
	}
	if l := timings[95].latency(); l > 20*time.Millisecond {
		t.Errorf("op 95, due after the backlog drained, has latency %v", l)
	}
}
