package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// benchmarkFile is the contract file at the root of the checkout; -repeat
// reads the metrics' bounds from it.
const benchmarkFile = "BENCHMARK.json"

type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRepeat runs each workload n times in fresh processes (seeds o.seed,
// o.seed+1, …, as the acceptance check does), prints median and quartiles
// per end-to-end metric, and returns non-zero if any run failed or any
// metric's interquartile spread exceeds its bound. setup_s is reported but,
// as in the acceptance check, not held to its bound.
func runRepeat(o options, n int, out io.Writer) int {
	raw, err := os.ReadFile(benchmarkFile)
	var spec benchmarkSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", benchmarkFile, err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	todo := workloads
	if w, ok := findWorkload(o.workload); ok {
		todo = []workload{w}
	}
	code := 0
	for _, w := range todo {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			args := []string{
				"-workload", w.name,
				"-seed", fmt.Sprint(o.seed + uint64(i)),
				"-seconds", fmt.Sprint(o.seconds),
				"-trace", "0",
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			var stdout bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run() // Run waits for the child to exit
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var fl finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &fl); err != nil || runErr != nil || !fl.Correct {
				fmt.Fprintf(out, "%s run %d: FAILED (%v): %s\n", w.name, i, runErr, lines[len(lines)-1])
				code = 1
				continue
			}
			for name, mv := range fl.Metrics {
				values[name] = append(values[name], mv.Value)
			}
		}
		fmt.Fprintf(out, "%s: %d runs of %gs, seeds %d..%d\n", w.name, n, o.seconds, o.seed, o.seed+uint64(n)-1)
		fmt.Fprintf(out, "  %-20s %14s %14s %14s %9s %7s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sp := spread(values[m.Name])
			verdict := ""
			if sp > m.Bound && m.Name != "setup_s" {
				verdict = "  EXCEEDS BOUND"
				code = 1
			} else if sp > m.Bound/3 {
				verdict = "  (over a third of the bound)"
			}
			fmt.Fprintf(out, "  %-20s %14.6g %14.6g %14.6g %8.2f%% %6.1f%%%s\n",
				m.Name, q1, q2, q3, sp*100, m.Bound*100, verdict)
			fmt.Fprintf(out, "    values: %.5g\n", values[m.Name])
		}
	}
	return code
}
