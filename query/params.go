// Request parameter decoding, kept separate from the handlers so the
// HTTP-surface → filter translation is a pure function the fuzz targets
// can hammer without a server.
package query

import (
	"fmt"
	"net/url"
	"strconv"
	"time"

	"repro/recordstore"
)

// Limits and defaults of the query surface.
const (
	// DefaultK is the /topk result size when k is not given.
	DefaultK = 10
	// MaxK caps /topk result sizes.
	MaxK = 10000
	// DefaultLimit is the /flows match cap when limit is not given.
	DefaultLimit = 1000
	// MaxLimit caps /flows result sizes.
	MaxLimit = 100000
)

// Params are the decoded parameters of the query endpoints.
type Params struct {
	// K is the top-k result size (k=, DefaultK if absent).
	K int
	// Filter is the record filter (filter=, recordstore expression).
	Filter recordstore.Filter
	// Epoch restricts /flows to one epoch index (epoch=); -1 means all.
	Epoch int
	// Limit caps /flows matches (limit=, DefaultLimit if absent).
	Limit int
	// From/To bound /flows by epoch timestamp (from=, to=; RFC 3339 or
	// unix seconds). Zero values mean unbounded. The interval is
	// half-open, [From, To): an epoch stamped exactly From is included,
	// one stamped exactly To is excluded — the recordstore.Mapped.Range
	// convention, so adjacent windows (to == next from) tile the store
	// without overlap or gap.
	From, To time.Time
}

// ParseParams decodes URL query values into Params, applying the
// defaults and caps above. Unknown keys are rejected so typos fail loudly
// instead of silently matching everything.
func ParseParams(q url.Values) (Params, error) {
	p := Params{K: DefaultK, Epoch: -1, Limit: DefaultLimit}
	for key, vals := range q {
		if len(vals) != 1 {
			return Params{}, fmt.Errorf("query: parameter %q given %d times", key, len(vals))
		}
		val := vals[0]
		var err error
		switch key {
		case "k":
			p.K, err = parseBounded(val, 1, MaxK)
		case "filter":
			p.Filter, err = recordstore.ParseFilter(val)
		case "epoch":
			p.Epoch, err = parseBounded(val, 0, 1<<30)
		case "limit":
			p.Limit, err = parseBounded(val, 1, MaxLimit)
		case "from":
			p.From, err = parseTime(val)
		case "to":
			p.To, err = parseTime(val)
		default:
			return Params{}, fmt.Errorf("query: unknown parameter %q", key)
		}
		if err != nil {
			return Params{}, fmt.Errorf("query: bad %s: %w", key, err)
		}
	}
	return p, nil
}

// parseBounded parses a decimal integer in [lo, hi].
func parseBounded(s string, lo, hi int) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, err
	}
	if n < lo || n > hi {
		return 0, fmt.Errorf("%d outside [%d, %d]", n, lo, hi)
	}
	return n, nil
}

// parseTime accepts RFC 3339 or unix seconds.
func parseTime(s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	secs, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("%q is neither RFC 3339 nor unix seconds", s)
	}
	return time.Unix(secs, 0).UTC(), nil
}
