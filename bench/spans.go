package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanID indexes tracer.spans; noSpan marks "no parent" and is what every
// tracer method returns when tracing is off.
type spanID int32

const noSpan spanID = -1

// span is one traced interval at a layer boundary. Times are nanoseconds
// since the tracer's origin. ID groups the spans of one epoch or request.
type span struct {
	Name   string
	Start  int64
	End    int64
	Parent spanID
	ID     int
}

// tracer records spans into a slice preallocated at construction, so the
// traced run never allocates (or grows a slice) inside a measured call.
// A nil *tracer is the untraced run: every method is a no-op that reads no
// clock, which is what keeps the end-to-end numbers free of tracing cost.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// now is nanoseconds since the origin (monotonic).
func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its id. Spans beyond the preallocated
// capacity are counted in dropped, not recorded.
func (t *tracer) begin(name string, parent spanID, id int) spanID {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, ID: id})
	return spanID(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(s spanID) {
	if t == nil || s == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[s].End = end
	t.mu.Unlock()
}

// name returns a recorded span's name (safe while other goroutines record).
func (t *tracer) name(s spanID) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[s].Name
}

// id returns a recorded span's ID, 0 for noSpan.
func (t *tracer) id(s spanID) int {
	if s == noSpan {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[s].ID
}

// add records an already-measured interval (for layers that report their
// own duration, like a compaction stall).
func (t *tracer) add(name string, parent spanID, id int, start, end int64) spanID {
	if t == nil {
		return noSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, ID: id})
	return spanID(len(t.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// covered by the union of its direct children. Children may overlap each
// other (parallel shard drains) and may run past or wholly outside the
// parent (a drain caused by an epoch but running after it); only the
// covered part of the parent's own interval is subtracted.
func selfTimes(spans []span) []int64 {
	children := make(map[spanID][]int, len(spans))
	for i, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[spanID(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		flush := func() {
			if curHi > curLo {
				covered += curHi - curLo
			}
		}
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi <= lo {
				continue
			}
			if curHi < curLo || lo > curHi {
				flush()
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		flush()
		self[i] -= covered
	}
	return self
}

// layerTimes groups durations and self times by span name, in
// milliseconds, for the per-layer metrics.
type layerTimes struct {
	dur  map[string][]float64
	self map[string][]float64
}

// byName leaves out spans whose ID is below minID: set-up's warm-up epochs.
func (t *tracer) byName(minID int) layerTimes {
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	if t == nil {
		return lt
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if s.ID < minID {
			continue
		}
		lt.dur[s.Name] = append(lt.dur[s.Name], float64(s.End-s.Start)/1e6)
		lt.self[s.Name] = append(lt.self[s.Name], float64(self[i])/1e6)
	}
	return lt
}

// write dumps every span as one JSON object per array element:
// {"name","start","end","parent","id"} with times in nanoseconds since
// the trace origin and parent an index into the same array (-1 = root).
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"dropped\": %d, \"spans\": [\n", t.dropped)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"id\":%d}%s\n",
			s.Name, s.Start, s.End, s.Parent, s.ID, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clockOverheadNs is the cost of one back-to-back clock-read pair, measured
// once at start-up. Sampled per-packet timings subtract it: a HashFlow
// update is a few tens of nanoseconds, the same order as reading the clock.
var clockOverheadNs = calibrateClock()

func calibrateClock() int64 {
	const n = 4096
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		ds[i] = float64(time.Since(t0))
	}
	return int64(median(ds))
}

// callTimer accumulates the cost of a per-packet call without a span per
// call: every call is counted, one in sampleEvery is timed. It has a single
// writer (the ingest goroutine, or whoever holds the shard lock).
type callTimer struct {
	calls   uint64
	sampled uint64
	ns      int64
}

const sampleEvery = 32

// tick counts one call and reports whether it should be timed.
func (c *callTimer) tick() bool {
	c.calls++
	return c.calls%sampleEvery == 0
}

// observe records one timed call.
func (c *callTimer) observe(d time.Duration) {
	c.sampled++
	c.ns += int64(d) - clockOverheadNs
}

// meanNs is the estimated cost of one call.
func (c *callTimer) meanNs() float64 {
	if c.sampled == 0 {
		return 0
	}
	return float64(c.ns) / float64(c.sampled)
}

// totalNs extrapolates the sampled mean to every call.
func (c *callTimer) totalNs() float64 { return c.meanNs() * float64(c.calls) }
