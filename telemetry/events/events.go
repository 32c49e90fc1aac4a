// Package events is the structured pipeline-event layer shared by both
// daemons: a bounded in-memory ring of lifecycle events (epoch spans, alert
// emissions, recovery transitions, degradation notices, log lines), each
// stamped with a monotonic sequence number so consumers can resume after a
// disconnect (SSE Last-Event-ID).
//
// The bus is deliberately lock-light: one mutex guards the ring and the
// subscriber set, publishers never block on slow consumers (stalled
// subscriber queues drop events and account for the drops), and nothing in
// this package runs on the packet-ingest path — events are constructed on
// the epoch/drain goroutines only.
package events

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a pipeline event.
type Kind uint8

const (
	// KindLog is an operational log line with no more specific class.
	KindLog Kind = 1 + iota
	// KindEpoch is an epoch-lifecycle span (stage timings, record counts).
	KindEpoch
	// KindAlert is a detection alert emission.
	KindAlert
	// KindRecovery is a store recovery outcome at boot.
	KindRecovery
	// KindDegraded is a degradation notice (sticky store error, webhook
	// drops, failed compaction).
	KindDegraded

	kindMax = KindDegraded
)

var kindNames = [...]string{
	KindLog:      "log",
	KindEpoch:    "epoch",
	KindAlert:    "alert",
	KindRecovery: "recovery",
	KindDegraded: "degraded",
}

// String returns the wire name of the kind ("alert", "epoch", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a wire name back to its Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if name != "" && name == s {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("events: unknown kind %q", s)
}

// MarshalJSON encodes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("events: kind must be a JSON string")
	}
	v, err := ParseKind(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*k = v
	return nil
}

// Severity grades an event. The zero value means "unset" so filters can
// distinguish "no minimum" from "info".
type Severity uint8

const (
	// SeverityInfo is routine operation.
	SeverityInfo Severity = 1 + iota
	// SeverityWarning is unexpected but survivable.
	SeverityWarning
	// SeverityCritical indicates lost data or a degraded pipeline.
	SeverityCritical
)

var severityNames = [...]string{
	SeverityInfo:     "info",
	SeverityWarning:  "warning",
	SeverityCritical: "critical",
}

// String returns the wire name of the severity.
func (s Severity) String() string {
	if int(s) < len(severityNames) && severityNames[s] != "" {
		return severityNames[s]
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// ParseSeverity maps a wire name back to its Severity.
func ParseSeverity(v string) (Severity, error) {
	for s, name := range severityNames {
		if name != "" && name == v {
			return Severity(s), nil
		}
	}
	return 0, fmt.Errorf("events: unknown severity %q", v)
}

// MarshalJSON encodes the severity as its wire name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON decodes a wire name.
func (s *Severity) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("events: severity must be a JSON string")
	}
	v, err := ParseSeverity(string(b[1 : len(b)-1]))
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// Attr is one ordered key/value pair on an event. Values are stringified at
// construction time so marshalling is deterministic and consumers never see
// type drift.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// NoEpoch marks events that are not tied to a measurement epoch.
const NoEpoch = -1

// Event is one structured pipeline event. Seq is assigned by the Bus at
// publish time and is strictly monotonic for the life of the process.
type Event struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Kind     Kind      `json:"kind"`
	Severity Severity  `json:"severity"`
	Vantage  string    `json:"vantage,omitempty"`
	Epoch    int       `json:"epoch"`
	Msg      string    `json:"msg"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// KindSet is a bitmask of Kinds. The zero value matches every kind.
type KindSet uint16

// With returns the set with k added.
func (s KindSet) With(k Kind) KindSet { return s | 1<<k }

// Has reports whether k is in the set; the empty set matches everything.
func (s KindSet) Has(k Kind) bool { return s == 0 || s&(1<<k) != 0 }

// Filter selects a subset of the event stream. The zero value matches every
// event.
type Filter struct {
	// Kinds restricts to the given kinds; empty means all.
	Kinds KindSet
	// MinSeverity drops events below the given grade; zero keeps all.
	MinSeverity Severity
	// Vantage restricts to events carrying the given vantage label;
	// empty means all.
	Vantage string
}

// Match reports whether e passes the filter.
func (f Filter) Match(e Event) bool {
	if !f.Kinds.Has(e.Kind) {
		return false
	}
	if f.MinSeverity != 0 && e.Severity < f.MinSeverity {
		return false
	}
	if f.Vantage != "" && e.Vantage != f.Vantage {
		return false
	}
	return true
}

// DefaultRingCap is the bus ring capacity when NewBus is given a
// non-positive size. It is also the documented resume bound: a client that
// reconnects with a Last-Event-ID more than this many events behind will
// observe a sequence gap.
const DefaultRingCap = 1024

// Bus is a bounded ring of events with fan-out to bounded subscriber
// queues. Publish never blocks: a subscriber whose queue is full misses the
// event and its drop counter advances, so a stalled dashboard can never
// backpressure the drain worker.
type Bus struct {
	mu        sync.Mutex
	ring      []Event
	start, n  int
	seq       uint64
	subs      map[*Subscriber]struct{}
	published uint64
	dropped   uint64
}

// NewBus returns a bus retaining at most capacity events (DefaultRingCap if
// capacity <= 0).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Bus{
		ring: make([]Event, capacity),
		subs: make(map[*Subscriber]struct{}),
	}
}

// Cap returns the ring capacity (the documented resume bound).
func (b *Bus) Cap() int { return len(b.ring) }

// Publish stamps e with the next sequence number (and the current time if
// e.Time is zero), retains it in the ring, fans it out to matching
// subscribers, and returns the assigned sequence number.
func (b *Bus) Publish(e Event) uint64 {
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	b.mu.Lock()
	b.seq++
	e.Seq = b.seq
	if b.n < len(b.ring) {
		b.ring[(b.start+b.n)%len(b.ring)] = e
		b.n++
	} else {
		b.ring[b.start] = e
		b.start = (b.start + 1) % len(b.ring)
	}
	b.published++
	for sub := range b.subs {
		if !sub.filter.Match(e) {
			continue
		}
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			b.dropped++
		}
	}
	b.mu.Unlock()
	return e.Seq
}

// LastSeq returns the most recently assigned sequence number (0 before the
// first publish).
func (b *Bus) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seq
}

// OldestSeq returns the sequence number of the oldest retained event, or 0
// if the ring is empty.
func (b *Bus) OldestSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 {
		return 0
	}
	return b.ring[b.start].Seq
}

// Stats returns lifetime publish and fan-out-drop totals plus the current
// subscriber count.
func (b *Bus) Stats() (published, dropped uint64, subscribers int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.published, b.dropped, len(b.subs)
}

// AppendSince appends retained events with Seq > after that pass the
// filter, oldest first, and returns the extended slice.
func (b *Bus) AppendSince(dst []Event, after uint64, f Filter) []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 0; i < b.n; i++ {
		e := b.ring[(b.start+i)%len(b.ring)]
		if e.Seq > after && f.Match(e) {
			dst = append(dst, e)
		}
	}
	return dst
}

// Subscriber is one bounded event queue registered on a Bus.
type Subscriber struct {
	ch      chan Event
	filter  Filter
	dropped atomic.Uint64
}

// Events is the subscriber's receive queue.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Dropped returns how many matching events were discarded because the
// queue was full.
func (s *Subscriber) Dropped() uint64 { return s.dropped.Load() }

// Subscribe registers a bounded queue for events matching f.
//
// after controls replay: a negative value subscribes live-only; otherwise
// every retained event with Seq > after is queued before any live event, so
// a client resuming via Last-Event-ID sees no gap as long as it is within
// the ring bound. If after is beyond the last assigned sequence number (a
// stale id from a previous process incarnation), all retained events are
// replayed instead of waiting forever. The queue holds the replay plus at
// least buf live events.
func (b *Bus) Subscribe(f Filter, after int64, buf int) *Subscriber {
	if buf <= 0 {
		buf = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	var replay []Event
	if after >= 0 {
		from := uint64(after)
		if from > b.seq {
			// Stale resume token from a prior incarnation: the new
			// sequence space restarted below it, so replay history
			// rather than waiting for a seq that may never come.
			from = 0
		}
		for i := 0; i < b.n; i++ {
			e := b.ring[(b.start+i)%len(b.ring)]
			if e.Seq > from && f.Match(e) {
				replay = append(replay, e)
			}
		}
	}
	sub := &Subscriber{ch: make(chan Event, len(replay)+buf), filter: f}
	for _, e := range replay {
		sub.ch <- e
	}
	b.subs[sub] = struct{}{}
	return sub
}

// Unsubscribe removes sub and closes its queue. Safe to call once per
// subscriber; pending queued events are still readable until the close.
func (b *Bus) Unsubscribe(sub *Subscriber) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.subs[sub]; !ok {
		return
	}
	delete(b.subs, sub)
	close(sub.ch)
}
