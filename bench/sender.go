package main

import (
	"fmt"
	"runtime"
	"time"
)

// dgramSet is one exporter stream's encoded datagrams for one epoch, held
// in one reused arena so encoding an epoch allocates nothing once grown.
type dgramSet struct {
	buf []byte
	end []int // end offset of each datagram in buf
}

func (d *dgramSet) reset() { d.buf, d.end = d.buf[:0], d.end[:0] }

// add copies one datagram in (the exporter reuses its encode buffer).
func (d *dgramSet) add(b []byte) error {
	d.buf = append(d.buf, b...)
	d.end = append(d.end, len(d.buf))
	return nil
}

func (d *dgramSet) n() int { return len(d.end) }

func (d *dgramSet) at(i int) []byte {
	lo := 0
	if i > 0 {
		lo = d.end[i-1]
	}
	return d.buf[lo:d.end[i]]
}

// windowSender is the closed-loop load generator of collect_store: it keeps
// at most window datagrams unacknowledged, where "acknowledged" means the
// receiver has counted them. As long as the receiver can buffer window
// datagrams, nothing is ever dropped, so any loss the collector reports is
// a failure of the system under test and not of the offered load.
type windowSender struct {
	write   func(stream int, b []byte) error
	acked   func() uint64 // datagrams the receiver has taken, lifetime
	window  uint64
	timeout time.Duration
	sent    uint64 // lifetime, successfully written
}

// pollsPerClockRead is how many polls of the acknowledgement counter
// waitBelow makes between looks at the clock for its timeout.
const pollsPerClockRead = 256

// waitBelow blocks until fewer than limit datagrams are outstanding. It
// polls, yielding the processor to any runnable goroutine (the receiver
// included) between polls, and never sleeps: on the shared reference box a
// 20 µs sleep comes back after 50–200 µs depending on the host's state, which
// made the send window — and throughput — bimodal between runs of the same
// code (5 against 9 M records/s).
func (s *windowSender) waitBelow(limit uint64) error {
	var deadline time.Time
	for polls := 1; s.sent-s.acked() >= limit; polls++ {
		runtime.Gosched()
		if polls%pollsPerClockRead != 0 {
			continue
		}
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(s.timeout)
		} else if now.After(deadline) {
			lost := s.sent - s.acked()
			// Resynchronise so one loss does not wedge every later epoch.
			s.sent = s.acked()
			return fmt.Errorf("%d datagrams unacknowledged after %v", lost, s.timeout)
		}
	}
	return nil
}

// sendEpoch sends every datagram of the sets, interleaving the streams
// round-robin the way independent exporters interleave on a shared socket,
// and returns once all of them are acknowledged.
func (s *windowSender) sendEpoch(sets []dgramSet) error {
	most := 0
	for i := range sets {
		most = max(most, sets[i].n())
	}
	for i := 0; i < most; i++ {
		for st := range sets {
			if i >= sets[st].n() {
				continue
			}
			if err := s.waitBelow(s.window); err != nil {
				return err
			}
			if err := s.write(st, sets[st].at(i)); err != nil {
				return fmt.Errorf("stream %d: %w", st, err)
			}
			s.sent++
		}
	}
	return s.waitBelow(1)
}
