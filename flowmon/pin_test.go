package flowmon_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

// pinned holds, per algorithm, trace profile and memory budget, the state
// a recorder reaches on a fixed-seed trace: an FNV-64a digest of its
// sorted records, its OpStats and the bits of its cardinality estimate. The equivalence
// tests compare two paths of one build; these constants compare builds, so
// a refactor of a recorder's update rule that changes any output — a
// record, an operation count, an estimate — fails here.
var pinned = map[string]string{
	"HashFlow/CAIDA/32KiB":         "recs=1698 digest=66c3b15b3f61f4da ops={Packets:9600 Hashes:15918 MemAccesses:25518} card=40a78194334acb00",
	"HashFlow/CAIDA/128KiB":        "recs=2978 digest=afa0639970674c83 ops={Packets:9600 Hashes:11133 MemAccesses:20733} card=40a770120026c0cb",
	"HashPipe/CAIDA/32KiB":         "recs=1742 digest=1f23f179d8779c1d ops={Packets:9600 Hashes:17730 MemAccesses:29892} card=409b380000000000",
	"HashPipe/CAIDA/128KiB":        "recs=2999 digest=43773ef8b45f54df ops={Packets:9600 Hashes:12157 MemAccesses:23720} card=40a76e0000000000",
	"ElasticSketch/CAIDA/32KiB":    "recs=1410 digest=a9500bc124fb8ea5 ops={Packets:9600 Hashes:17723 MemAccesses:29069} card=40a758fc8143b1fe",
	"ElasticSketch/CAIDA/128KiB":   "recs=2942 digest=7f430cec93e35fe1 ops={Packets:9600 Hashes:12062 MemAccesses:21721} card=40a76e92f3ba7113",
	"FlowRadar/CAIDA/32KiB":        "recs=9 digest=c75e28217eb8b83d ops={Packets:9600 Hashes:67200 MemAccesses:107984} card=40a771ab8c9358be",
	"FlowRadar/CAIDA/128KiB":       "recs=3000 digest=c3e402525dd5c0c3 ops={Packets:9600 Hashes:67200 MemAccesses:107994} card=40a774d3465b62b7",
	"SampledNetFlow/CAIDA/32KiB":   "recs=436 digest=bdfd92cc270f01e8 ops={Packets:9600 Hashes:0 MemAccesses:1814} card=40b1080000000000",
	"SampledNetFlow/CAIDA/128KiB":  "recs=436 digest=bdfd92cc270f01e8 ops={Packets:9600 Hashes:0 MemAccesses:1814} card=40b1080000000000",
	"Cuckoo/CAIDA/32KiB":           "recs=1920 digest=d6e78bb9677a05f8 ops={Packets:9600 Hashes:95288 MemAccesses:144605} card=409e000000000000",
	"Cuckoo/CAIDA/128KiB":          "recs=3000 digest=c3e402525dd5c0c3 ops={Packets:9600 Hashes:9939 MemAccesses:19539} card=40a7700000000000",
	"SpaceSaving/CAIDA/32KiB":      "recs=1310 digest=dba1d420786c997f ops={Packets:9600 Hashes:0 MemAccesses:21010} card=4094780000000000",
	"SpaceSaving/CAIDA/128KiB":     "recs=3000 digest=c3e402525dd5c0c3 ops={Packets:9600 Hashes:0 MemAccesses:19200} card=40a7700000000000",
	"HashFlow/Campus/32KiB":        "recs=1702 digest=e98a4a7e6d361493 ops={Packets:45312 Hashes:69719 MemAccesses:115031} card=40aa356ba01f1be8",
	"HashFlow/Campus/128KiB":       "recs=2987 digest=a4208e6f2d641af9 ops={Packets:45312 Hashes:51178 MemAccesses:96490} card=40a77e0edfa6d182",
	"HashPipe/Campus/32KiB":        "recs=1569 digest=7722a2d2a3375232 ops={Packets:45312 Hashes:79358 MemAccesses:136946} card=4098840000000000",
	"HashPipe/Campus/128KiB":       "recs=2994 digest=7866bdae87e63056 ops={Packets:45312 Hashes:55846 MemAccesses:109134} card=40a7640000000000",
	"ElasticSketch/Campus/32KiB":   "recs=1411 digest=015ed1cc88d82f43 ops={Packets:45312 Hashes:78322 MemAccesses:129513} card=40a82a51bf1b43aa",
	"ElasticSketch/Campus/128KiB":  "recs=2947 digest=fe85c928b825cf36 ops={Packets:45312 Hashes:54693 MemAccesses:100137} card=40a7707efdafc6d8",
	"FlowRadar/Campus/32KiB":       "recs=9 digest=16453c1e2aa7fdaf ops={Packets:45312 Hashes:317184 MemAccesses:465064} card=40a771ab8c9358be",
	"FlowRadar/Campus/128KiB":      "recs=3000 digest=30de1c4952fc07ae ops={Packets:45312 Hashes:317184 MemAccesses:465104} card=40a774d3465b62b7",
	"SampledNetFlow/Campus/32KiB":  "recs=1222 digest=89363d13a9bf50ef ops={Packets:45312 Hashes:0 MemAccesses:8970} card=40c7de0000000000",
	"SampledNetFlow/Campus/128KiB": "recs=1222 digest=89363d13a9bf50ef ops={Packets:45312 Hashes:0 MemAccesses:8970} card=40c7de0000000000",
	"Cuckoo/Campus/32KiB":          "recs=1920 digest=6b49244d998ae781 ops={Packets:45312 Hashes:332856 MemAccesses:506848} card=409e000000000000",
	"Cuckoo/Campus/128KiB":         "recs=3000 digest=30de1c4952fc07ae ops={Packets:45312 Hashes:46461 MemAccesses:91773} card=40a7700000000000",
	"SpaceSaving/Campus/32KiB":     "recs=1310 digest=08883635019d4a65 ops={Packets:45312 Hashes:0 MemAccesses:96362} card=4094780000000000",
	"SpaceSaving/Campus/128KiB":    "recs=3000 digest=30de1c4952fc07ae ops={Packets:45312 Hashes:0 MemAccesses:90624} card=40a7700000000000",
	"HashFlow/ISP1/32KiB":          "recs=1702 digest=787d5ce16c48e151 ops={Packets:15600 Hashes:24420 MemAccesses:40020} card=40a7246867e82870",
	"HashFlow/ISP1/128KiB":         "recs=2983 digest=a91540cd6ebd9e3e ops={Packets:15600 Hashes:17692 MemAccesses:33292} card=40a7700abe3aa008",
	"HashPipe/ISP1/32KiB":          "recs=1615 digest=b6023afd325243dd ops={Packets:15600 Hashes:27814 MemAccesses:47917} card=40993c0000000000",
	"HashPipe/ISP1/128KiB":         "recs=2998 digest=b4bc532d51aa9189 ops={Packets:15600 Hashes:19323 MemAccesses:37814} card=40a76c0000000000",
	"ElasticSketch/ISP1/32KiB":     "recs=1415 digest=eeae661ed2d95f23 ops={Packets:15600 Hashes:27706 MemAccesses:45507} card=40a762fc8143b1fe",
	"ElasticSketch/ISP1/128KiB":    "recs=2952 digest=c21fb8012aa48219 ops={Packets:15600 Hashes:18987 MemAccesses:34642} card=40a76e63cb9285c7",
	"FlowRadar/ISP1/32KiB":         "recs=9 digest=ad9a4c8f6d844867 ops={Packets:15600 Hashes:109200 MemAccesses:167978} card=40a771ab8c9358be",
	"FlowRadar/ISP1/128KiB":        "recs=3000 digest=5cb97b7fd2f3d2e6 ops={Packets:15600 Hashes:109200 MemAccesses:167994} card=40a774d3465b62b7",
	"SampledNetFlow/ISP1/32KiB":    "recs=601 digest=e185ec32c8869ea4 ops={Packets:15600 Hashes:0 MemAccesses:3018} card=40b77a0000000000",
	"SampledNetFlow/ISP1/128KiB":   "recs=601 digest=e185ec32c8869ea4 ops={Packets:15600 Hashes:0 MemAccesses:3018} card=40b77a0000000000",
	"Cuckoo/ISP1/32KiB":            "recs=1920 digest=7adb93778a95cb0d ops={Packets:15600 Hashes:124170 MemAccesses:189243} card=409e000000000000",
	"Cuckoo/ISP1/128KiB":           "recs=3000 digest=5cb97b7fd2f3d2e6 ops={Packets:15600 Hashes:16016 MemAccesses:31616} card=40a7700000000000",
	"SpaceSaving/ISP1/32KiB":       "recs=1310 digest=df62ade9164b9a13 ops={Packets:15600 Hashes:0 MemAccesses:33414} card=4094780000000000",
	"SpaceSaving/ISP1/128KiB":      "recs=3000 digest=5cb97b7fd2f3d2e6 ops={Packets:15600 Hashes:0 MemAccesses:31200} card=40a7700000000000",
	"HashFlow/ISP2/32KiB":          "recs=1698 digest=2c7ec3dbe2174487 ops={Packets:3900 Hashes:9356 MemAccesses:13256} card=40a76801a89a9a74",
	"HashFlow/ISP2/128KiB":         "recs=2987 digest=02f4990db2145017 ops={Packets:3900 Hashes:5283 MemAccesses:9183} card=40a7700647a4859b",
	"HashPipe/ISP2/32KiB":          "recs=1851 digest=9063abae77290bab ops={Packets:3900 Hashes:10418 MemAccesses:15941} card=409cec0000000000",
	"HashPipe/ISP2/128KiB":         "recs=3000 digest=70917bac82ea501c ops={Packets:3900 Hashes:5993 MemAccesses:11465} card=40a7700000000000",
	"ElasticSketch/ISP2/32KiB":     "recs=1413 digest=4514c4467dcf21b9 ops={Packets:3900 Hashes:10441 MemAccesses:15959} card=40a71d195d16c62a",
	"ElasticSketch/ISP2/128KiB":    "recs=2950 digest=67c6d2794c0ee726 ops={Packets:3900 Hashes:6002 MemAccesses:9952} card=40a77070fb463e61",
	"FlowRadar/ISP2/32KiB":         "recs=9 digest=c75e28217eb8b83d ops={Packets:3900 Hashes:27300 MemAccesses:50976} card=40a771ab8c9358be",
	"FlowRadar/ISP2/128KiB":        "recs=3000 digest=70917bac82ea501c ops={Packets:3900 Hashes:27300 MemAccesses:50994} card=40a774d3465b62b7",
	"SampledNetFlow/ISP2/32KiB":    "recs=297 digest=505d769711c0c692 ops={Packets:3900 Hashes:0 MemAccesses:698} card=40a7340000000000",
	"SampledNetFlow/ISP2/128KiB":   "recs=297 digest=505d769711c0c692 ops={Packets:3900 Hashes:0 MemAccesses:698} card=40a7340000000000",
	"Cuckoo/ISP2/32KiB":            "recs=1920 digest=078c90953390e95c ops={Packets:3900 Hashes:80617 MemAccesses:120612} card=409e000000000000",
	"Cuckoo/ISP2/128KiB":           "recs=3000 digest=70917bac82ea501c ops={Packets:3900 Hashes:4236 MemAccesses:8136} card=40a7700000000000",
	"SpaceSaving/ISP2/32KiB":       "recs=1310 digest=a109806670f2c423 ops={Packets:3900 Hashes:0 MemAccesses:9515} card=4094780000000000",
	"SpaceSaving/ISP2/128KiB":      "recs=3000 digest=70917bac82ea501c ops={Packets:3900 Hashes:0 MemAccesses:7800} card=40a7700000000000",
}

// fingerprint renders the pinned view of a recorder's state.
func fingerprint(rec flowmon.Recorder) string {
	recs := rec.Records()
	sortRecords(recs)
	h := fnv.New64a()
	var buf []byte
	for _, r := range recs {
		buf = r.Key.AppendBytes(buf[:0])
		buf = binary.LittleEndian.AppendUint32(buf, r.Count)
		h.Write(buf)
	}
	return fmt.Sprintf("recs=%d digest=%016x ops=%+v card=%x",
		len(recs), h.Sum64(), rec.OpStats(), math.Float64bits(rec.EstimateCardinality()))
}

// TestPinnedOutputs replays one fixed-seed trace per profile through every
// algorithm, per packet and in batches, and requires both to reach the
// pinned state. The 32 KiB budget overloads every recorder, driving its
// eviction, kick and promotion paths; at 128 KiB FlowRadar decodes fully.
// A failure prints the reached state as a map entry of pinned.
func TestPinnedOutputs(t *testing.T) {
	perPacket := func(r flowmon.Recorder, pkts []flow.Packet) {
		for _, p := range pkts {
			r.Update(p)
		}
	}
	for _, prof := range trace.Profiles() {
		tr, err := trace.Generate(prof, 3000, 29)
		if err != nil {
			t.Fatal(err)
		}
		pkts := tr.Packets(29)
		for _, a := range append(flowmon.All(), flowmon.Extras()...) {
			for _, kib := range []int{32, 128} {
				name := fmt.Sprintf("%v/%s/%dKiB", a, prof.Name, kib)
				cfg := batchCfg
				cfg.MemoryBytes = kib << 10
				t.Run(name, func(t *testing.T) {
					for _, feed := range []func(flowmon.Recorder, []flow.Packet){perPacket, feedBatches} {
						rec, err := flowmon.New(a, cfg)
						if err != nil {
							t.Fatal(err)
						}
						feed(rec, pkts)
						if got := fingerprint(rec); got != pinned[name] {
							t.Fatalf("state diverges from the pin (per-packet feed first, then batches):\n\t%q: %q,", name, got)
						}
					}
				})
			}
		}
	}
}
