// The store experiment: the tiered recordstore's cost model. Four
// measurements — how much the cold tier's key-diff + DEFLATE encoding
// shrinks sorted epoch data vs the hot mmap encoding, what scanning each
// tier costs, what one cold point read costs, and how long compaction's
// hot-file rewrite stalls the write path. The cold format codes each
// epoch's keys against the previous epoch's, so the first two are
// reported per share of keys that carry over from one epoch to the next:
// all of them, 85% (what the end-to-end benchmark's generators and a
// HashFlow vantage produce), and none, where the format must fall back to
// coding every epoch in full and cost nothing extra. The ratios are gated
// quality metrics: BENCH_store.json pins them so a format change that
// quietly loses the win fails the benchdiff gate (and the recordstore unit
// tests pin the floors harder).
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/collector"
	"repro/flow"
	"repro/flowmon"
	"repro/netwide"
	"repro/recordstore"
)

// storeCompressionRow is one hot-vs-cold size measurement.
type storeCompressionRow struct {
	Shape            string  `json:"shape"`
	CarriedShare     float64 `json:"carried_share"`
	Epochs           int     `json:"epochs"`
	RecordsPerE      int     `json:"records_per_epoch"`
	HotBytes         int64   `json:"hot_bytes"`
	SegmentBytes     int64   `json:"segment_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
}

// storeScanRow is one shape's full-scan cost in both tiers, measured in
// the same run so their ratio is machine-independent.
type storeScanRow struct {
	Shape                string  `json:"shape"`
	Epochs               int     `json:"epochs"`
	HotNsPerRecord       float64 `json:"hot_ns_per_record"`
	ColdNsPerRecord      float64 `json:"cold_ns_per_record"`
	HotOverColdScanRatio float64 `json:"hot_over_cold_scan_ratio"`
}

// storePointReadRow is the worst-placed cold point read: open the segment
// afresh and decode the last epoch of a full block, which inflates the
// block and replays every diff in it.
type storePointReadRow struct {
	Shape       string  `json:"shape"`
	BlockEpochs int     `json:"block_epochs"`
	ReadUs      float64 `json:"read_us"`
	NsPerRecord float64 `json:"ns_per_record"`
}

// storeStallRow summarizes the write-path stall compaction caused.
type storeStallRow struct {
	Rounds       int     `json:"rounds"`
	EpochsPerRnd int     `json:"epochs_per_round"`
	MedStallUs   float64 `json:"med_stall_us"`
	MaxStallUs   float64 `json:"max_stall_us"`
}

// storeShape is one epoch population of the experiment: the first n of
// the recorder's key-sorted records, of which carried (in twentieths) keep
// their key from epoch to epoch while the rest get a new one every epoch.
type storeShape struct {
	name    string
	n       int
	carried int
}

// epoch writes epoch e of the shape into dst (len n): counts drift so
// successive epochs are similar but never identical, and every record
// outside the carried share has its destination address remapped by a
// per-epoch constant, which makes it a key no other epoch holds while
// leaving it beside its neighbours in the sort order, the way new flows
// turn up all over the key space.
func (sh storeShape) epoch(dst, base []flow.Record, e int) {
	churn := uint32(e+1) * 2654435761 // odd multiplier: distinct and non-zero per epoch
	for i := range dst {
		dst[i] = base[i]
		dst[i].Count = uint32(1000 + (e*31+i*7)%97)
		if i%20 >= sh.carried {
			dst[i].Key.DstIP ^= churn
		}
	}
	if sh.carried < 20 {
		netwide.SortByKey(dst)
	}
}

// runStoreBench measures the tiered storage layer: cold-tier compression
// ratio on sorted epoch data, cold-scan vs hot-scan decode throughput, a
// cold point read, and the compaction stall the ingest path observes.
func runStoreBench(cfg config, w io.Writer) error {
	// Key population: what a HashFlow recorder holds after a generated
	// trace, key-sorted once — the records the compactor actually migrates.
	tr, err := trace2(cfg)
	if err != nil {
		return err
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: cfg.mem, Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := collector.Replay(rec, tr.Packets(cfg.seed), collector.DefaultBatchSize); err != nil {
		return err
	}
	records := rec.Records()
	netwide.SortByKey(records)
	epochs, passes := 256, 4
	if cfg.quick {
		epochs, passes = 32, 2
	}

	dir, err := os.MkdirTemp("", "flowbench-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// (1) and (2), shape by shape: the same epochs through the hot FREC
	// encoding and through a cold segment, then a full scan of each. The
	// 2k-record persistent-flow shape is the small-epoch contract the unit
	// tests pin; the full-size shapes are the recorder's whole table.
	shapes := []storeShape{
		{"persistent", min(2000, len(records)), 20},
		{"full", len(records), 20},
		{"full-carry85", len(records), 17},
		{"full-carry0", len(records), 0},
	}
	var compRows []storeCompressionRow
	var scanRows []storeScanRow
	var pointRow storePointReadRow
	buf := make([]flow.Record, len(records))
	for _, sh := range shapes {
		hotPath, segPath := dir+"/"+sh.name+".frec", dir+"/"+sh.name+".cseg"
		if err := writeStoreShape(sh, records, buf[:sh.n], epochs, hotPath, segPath); err != nil {
			return err
		}
		hotSt, err := os.Stat(hotPath)
		if err != nil {
			return err
		}
		segSt, err := os.Stat(segPath)
		if err != nil {
			return err
		}
		compRows = append(compRows, storeCompressionRow{
			Shape:            sh.name,
			CarriedShare:     float64(sh.carried) / 20,
			Epochs:           epochs,
			RecordsPerE:      sh.n,
			HotBytes:         hotSt.Size(),
			SegmentBytes:     segSt.Size(),
			CompressionRatio: float64(hotSt.Size()) / float64(segSt.Size()),
		})
		if sh.n == len(records) {
			row, err := scanStoreShape(sh, epochs, passes, hotPath, segPath)
			if err != nil {
				return err
			}
			scanRows = append(scanRows, row)
		}
		if sh.name == "full-carry85" {
			// (3) The point read, on the shape real stores hold.
			if pointRow, err = pointReadStoreShape(sh, 4*passes, segPath, buf); err != nil {
				return err
			}
		}
		// The full-scale files run to hundreds of megabytes each.
		os.Remove(hotPath)
		os.Remove(segPath)
	}

	if _, err := fmt.Fprintln(w, "compression\tcarried\tepochs\trecords_per_epoch\thot_bytes\tsegment_bytes\tratio"); err != nil {
		return err
	}
	for _, row := range compRows {
		if _, err := fmt.Fprintf(w, "%s\t%.2f\t%d\t%d\t%d\t%d\t%.2f\n",
			row.Shape, row.CarriedShare, row.Epochs, row.RecordsPerE, row.HotBytes, row.SegmentBytes, row.CompressionRatio); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "scan\tepochs\thot_ns_per_record\tcold_ns_per_record\thot_over_cold"); err != nil {
		return err
	}
	for _, row := range scanRows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.2f\n",
			row.Shape, row.Epochs, row.HotNsPerRecord, row.ColdNsPerRecord, row.HotOverColdScanRatio); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "point_read\tblock_epochs\tread_us\tns_per_record"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f\n",
		pointRow.Shape, pointRow.BlockEpochs, pointRow.ReadUs, pointRow.NsPerRecord); err != nil {
		return err
	}

	// (4) Compaction stall: fill a tiered store past its hot window and
	// compact, round after round; the stall is the hot-file rewrite's
	// lock hold — the only compaction cost the write path can see.
	rounds := 8
	if cfg.quick {
		rounds = 4
	}
	perRound := 32
	tiered, _, err := recordstore.OpenTiered(dir+"/tiered", recordstore.TieredOptions{HotEpochs: 8})
	if err != nil {
		return err
	}
	defer tiered.Close()
	stalls := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for e := 0; e < perRound; e++ {
			shapes[1].epoch(buf, records, e)
			ts := time.Unix(int64((r*perRound+e))*60, 0)
			if err := tiered.WriteEpoch(ts, buf); err != nil {
				return err
			}
		}
		stats, err := tiered.Compact()
		if err != nil {
			return err
		}
		stalls = append(stalls, float64(stats.StallNs)/1e3)
	}
	sort.Float64s(stalls)
	stall := storeStallRow{
		Rounds:       rounds,
		EpochsPerRnd: perRound,
		MedStallUs:   stalls[len(stalls)/2],
		MaxStallUs:   stalls[len(stalls)-1],
	}
	if _, err := fmt.Fprintln(w, "compaction\trounds\tepochs_per_round\tmed_stall_us\tmax_stall_us"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "stall\t%d\t%d\t%.0f\t%.0f\n",
		stall.Rounds, stall.EpochsPerRnd, stall.MedStallUs, stall.MaxStallUs); err != nil {
		return err
	}

	if cfg.json {
		return writeBenchJSON("store", struct {
			Compression []storeCompressionRow `json:"compression"`
			Scan        []storeScanRow        `json:"scan"`
			PointRead   storePointReadRow     `json:"point_read"`
			Compaction  storeStallRow         `json:"compaction"`
		}{compRows, scanRows, pointRow, stall})
	}
	return nil
}

// writeStoreShape writes the shape's epochs to a hot FREC file and to a
// cold segment.
func writeStoreShape(sh storeShape, base, buf []flow.Record, epochs int, hotPath, segPath string) error {
	hf, err := os.Create(hotPath)
	if err != nil {
		return err
	}
	defer hf.Close()
	sf, err := os.Create(segPath)
	if err != nil {
		return err
	}
	defer sf.Close()
	hw := recordstore.NewWriter(hf)
	sw := recordstore.NewSegmentWriter(sf, recordstore.SegmentCold)
	for e := 0; e < epochs; e++ {
		sh.epoch(buf, base, e)
		ts := time.Unix(int64(e)*60, 0)
		if err := hw.WriteEpoch(ts, buf); err != nil {
			return err
		}
		if err := sw.Add(recordstore.SegmentEpoch{Time: ts, Records: buf}); err != nil {
			return err
		}
	}
	if err := hw.Flush(); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}
	if err := hf.Close(); err != nil {
		return err
	}
	return sf.Close()
}

// pointReadStoreShape times opening the shape's segment afresh and
// decoding the last epoch of its first block (best of passes).
func pointReadStoreShape(sh storeShape, passes int, segPath string, buf []flow.Record) (storePointReadRow, error) {
	ns, err := bestNs(passes, func() error {
		seg, err := recordstore.OpenSegment(segPath)
		if err != nil {
			return err
		}
		defer seg.Close()
		_, err = seg.AppendEpochAt(recordstore.DefaultBlockEpochs-1, buf[:0])
		return err
	})
	return storePointReadRow{
		Shape:       sh.name,
		BlockEpochs: recordstore.DefaultBlockEpochs,
		ReadUs:      float64(ns) / 1e3,
		NsPerRecord: float64(ns) / float64(sh.n),
	}, err
}

// scanStoreShape times a full scan of the shape's hot file and of its cold
// segment, each opened once and scanned passes times (best of).
func scanStoreShape(sh storeShape, epochs, passes int, hotPath, segPath string) (storeScanRow, error) {
	mapped, err := recordstore.OpenMapped(hotPath)
	if err != nil {
		return storeScanRow{}, err
	}
	defer mapped.Close()
	seg, err := recordstore.OpenSegment(segPath)
	if err != nil {
		return storeScanRow{}, err
	}
	defer seg.Close()
	var buf []flow.Record
	scan := func(src recordstore.EpochSource) (float64, error) {
		ns, err := bestNs(passes, func() error {
			for i := 0; i < src.Epochs(); i++ {
				ep, err := src.AppendEpochAt(i, buf[:0])
				if err != nil {
					return err
				}
				buf = ep.Records
			}
			return nil
		})
		return float64(ns) / float64(epochs*sh.n), err
	}
	hot, err := scan(mapped)
	if err != nil {
		return storeScanRow{}, err
	}
	cold, err := scan(seg)
	if err != nil {
		return storeScanRow{}, err
	}
	return storeScanRow{
		Shape:                sh.name,
		Epochs:               epochs,
		HotNsPerRecord:       hot,
		ColdNsPerRecord:      cold,
		HotOverColdScanRatio: hot / cold,
	}, nil
}
