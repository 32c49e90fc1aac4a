package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// A receiver that can buffer `window` datagrams and drops whatever arrives
// when the buffer is full loses nothing to the windowed sender, however
// slowly it drains.
func TestWindowSenderLosesNothing(t *testing.T) {
	const window = 8
	buffer := make(chan []byte, window) // the socket buffer
	var taken, dropped atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range buffer {
			if taken.Load()%16 == 0 {
				time.Sleep(200 * time.Microsecond) // a slow reader
			}
			taken.Add(1)
		}
	}()
	s := &windowSender{
		write: func(_ int, b []byte) error {
			select {
			case buffer <- b:
			default:
				dropped.Add(1) // what a full UDP socket buffer does
			}
			return nil
		},
		acked:   taken.Load,
		window:  window,
		timeout: 5 * time.Second,
	}
	sets := make([]dgramSet, 3)
	total := 0
	for st := range sets {
		for i := 0; i < 100+50*st; i++ {
			if err := sets[st].add([]byte{byte(st), byte(i)}); err != nil {
				t.Fatal(err)
			}
			total++
		}
	}
	for epoch := 0; epoch < 3; epoch++ {
		if err := s.sendEpoch(sets); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if got := taken.Load(); got != uint64(total*(epoch+1)) {
			t.Fatalf("epoch %d: sendEpoch returned with %d of %d datagrams taken", epoch, got, total*(epoch+1))
		}
	}
	close(buffer)
	<-done
	if dropped.Load() != 0 {
		t.Errorf("%d datagrams dropped", dropped.Load())
	}
}

// A receiver that stops acknowledging is reported, not waited on forever.
func TestWindowSenderReportsLoss(t *testing.T) {
	s := &windowSender{
		write:   func(int, []byte) error { return nil },
		acked:   func() uint64 { return 0 },
		window:  4,
		timeout: 20 * time.Millisecond,
	}
	var set dgramSet
	for i := 0; i < 10; i++ {
		_ = set.add([]byte{byte(i)}) // add cannot fail
	}
	if err := s.sendEpoch([]dgramSet{set}); err == nil {
		t.Error("no error from a receiver that never acknowledges")
	}
}

func TestDgramSetRoundTrip(t *testing.T) {
	var d dgramSet
	for _, b := range [][]byte{{1}, {2, 3}, {}, {4, 5, 6}} {
		_ = d.add(b) // add cannot fail
	}
	if d.n() != 4 || string(d.at(1)) != "\x02\x03" || len(d.at(2)) != 0 || string(d.at(3)) != "\x04\x05\x06" {
		t.Errorf("got %d datagrams: %v", d.n(), d)
	}
	d.reset()
	if d.n() != 0 {
		t.Error("reset left datagrams")
	}
}
