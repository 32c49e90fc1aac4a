package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end at -smoke size, once
// untraced and once traced, and checks the contract of the final line: the
// right metric set, every oracle passing, exit code 0.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Cleanup(func() { os.RemoveAll(scratchRoot) })
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: w.name, seed: 1, seconds: 0.2, smoke: true, trace: traced}
			code, err := runOne(w, o, &out)
			if err != nil || code != 0 {
				t.Fatalf("%s traced=%v: exit %d, err %v\n%s", w.name, traced, code, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var fl finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !fl.Correct || fl.Failed != 0 || fl.Attempted < 1 || len(fl.Metrics) != len(want) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, %d metrics (want %d)",
					w.name, traced, fl.Correct, fl.Attempted, fl.Failed, len(fl.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := fl.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s: got %+v", w.name, traced, m.name, got)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, m.name, got.Value)
				}
			}
			if !strings.Contains(lines[len(lines)-2], `"claim":null}`) {
				t.Errorf("%s: summary line does not end with \"claim\": null: %s", w.name, lines[len(lines)-2])
			}
		}
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables the
// program prints from in step.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../" + benchmarkFile)
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) || len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("counts differ: %d/%d workloads, %d/%d end-to-end, %d/%d per-layer",
			len(spec.Workloads), len(workloads), len(spec.EndToEnd), len(endToEnd), len(spec.PerLayer), len(perLayer))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: file has %q, program has %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	hasSetup := false
	for i, m := range endToEnd {
		f := spec.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Bound <= 0 || f.Bound > 0.25 {
			t.Errorf("end-to-end %d: file has %+v, program has %+v", i, f, m)
		}
		hasSetup = hasSetup || (f.Name == "setup_s" && f.Unit == "s" && f.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range perLayer {
		if f := spec.PerLayer[i]; f.Name != m.name || f.Unit != m.unit {
			t.Errorf("per-layer %d: file has %+v, program has %+v", i, f, m)
		}
	}
}
