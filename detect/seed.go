// Warm restart: the detector's state is a pure function of the epochs it
// has observed, and the record store already holds those epochs durably.
// Replaying the stored tail through the detector at boot therefore brings
// forecasting, anomaly baselines and the heavy-change comparison base back
// warm with no second copy of detector state to keep in step with the
// store. Replaying the whole history reproduces an uninterrupted detector
// exactly; the default tail of DefaultSeedEpochs is enough to carry an
// in-progress slow ramp across a restart. Because replay reads records, not
// serialized state, it also survives a detector configuration change.
package detect

import (
	"repro/flow"
	"repro/recordstore"
)

// DefaultSeedEpochs is how many stored epochs a warm restart replays by
// default (flowcollect serve's -seedhistory).
const DefaultSeedEpochs = 16

// SeedFromHistory replays up to n of src's newest epochs through the
// detector in stored order and returns how many it replayed. The replay
// drives every evaluation stage — per-key forecasts, anomaly baselines,
// the previous-epoch comparison base — but retains and delivers nothing:
// the alert ring, change-summary ring, sinks and metrics all stay
// untouched, because whatever the replayed history alerted on already
// fired when those epochs were live.
//
// Each epoch replays under its store index, so live evaluation continues
// at index src.Epochs() and every alert names the epoch /v1/flows?epoch=
// serves. Epochs() counts the replayed epochs as observations. Rollup
// epochs replay like any other epoch (their truncated tails make the
// warmed baselines slightly conservative). Call before live evaluation
// starts; not safe concurrently with Observe.
func (d *Detector) SeedFromHistory(src recordstore.EpochSource, n int) (int, error) {
	total := src.Epochs()
	n = min(n, total)
	if n <= 0 {
		return 0, nil
	}
	d.seeding = true
	defer func() { d.seeding = false }()
	first := total - n
	var buf []flow.Record
	for i := 0; i < n; i++ {
		ep, err := src.AppendEpochAt(first+i, buf[:0])
		if err != nil {
			return i, err
		}
		buf = ep.Records
		d.Observe(first+i, ep.Time, ep.Records)
	}
	return n, nil
}
