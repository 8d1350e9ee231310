// Command streambench is the repository's end-to-end benchmark. It
// streams pre-generated switch counter snapshots through a
// WindowAssembler into System.Serve on a FatTree(8) fabric, measures
// ingest-to-verdict latency in an open loop and throughput in a
// saturated closed loop, checks every verdict byte for byte against a
// reference System run in lock step, and prints one JSON result line.
// With --trace 1 it also runs a traced consumer that times each layer
// from outside and prints per-layer metrics instead.
//
// Run it from the repository root through run.sh:
//
//	bash streambench/run.sh --workload steady --seed 1 --seconds 25 --trace 0
//
// README.md in this directory describes the workloads, the metrics and
// the trace format.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// workload is one input family the benchmark runs.
type workload struct {
	name   string
	loss   float64 // per-link loss probability, the same on every link
	rate   float64 // open-loop windows per second
	churn  bool    // phantom rule add/modify/remove on schedule
	faults bool    // silent switches and counter resets in rotation
}

// workloads are the benchmark's workloads. The open-loop rate is a
// quarter to two fifths of the saturated rate each workload reaches on
// a 2-CPU host: low enough that the tail reflects the system rather
// than host noise amplified by queueing.
var workloads = []workload{
	{name: "steady", loss: 0.02, rate: 150},
	{name: "quiet", rate: 150},
	{name: "disrupted", loss: 0.02, rate: 150, churn: true, faults: true},
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// Default and held-out workload seeds. A claimed change must hold on
// both.
const (
	defaultSeed  = 1
	heldOutSeed  = 7
	defaultFlows = 960
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("streambench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "steady", "workload: steady, quiet or disrupted")
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d, held-out %d)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 20, "measured seconds: 4/5 open loop, 1/5 saturated")
	trace := fs.Int("trace", 0, "1 runs the traced consumer and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "streambench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "streambench: --trace must be 0 or 1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "streambench: %v\n", err)
		return 2
	}
	cfg := defaultConfig(wl, *seed, *seconds)
	cfg.Trace = *trace == 1
	cfg.TracePath = filepath.Join(".bench_build", "streambench", "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
	env := hostEnv(root)
	env.Seed, env.Workload, env.Seconds, env.Trace, env.Rate = *seed, wl.name, *seconds, cfg.Trace, wl.rate
	cfg.Env = &env

	res, _, err := runStream(cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "streambench: %v\n", err)
		return 1
	}
	metrics := res.EndToEnd
	if cfg.Trace {
		metrics = res.PerLayer
	}
	out := map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metricJSON(metrics),
	}
	info, _ := json.Marshal(map[string]any{"env": env, "digest": res.Digest, "dominant_layer": res.Dominant, "open_loop_tail": res.VerdictTail})
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "streambench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricJSON renders metrics for the result line.
func metricJSON(ms []namedMetric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = metric{Value: finite(m.value), Unit: m.unit}
	}
	return out
}

// finite makes a figure JSON-encodable: a figure with no samples (NaN)
// reads 0, and an infinite latency (a failed window at that
// percentile; the run is then incorrect anyway) reads 1e12.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return 1e12
	}
	return v
}

type namedMetric struct {
	name, unit string
	value      float64
}

// summary formats metrics one per line for the log.
func summary(ms []namedMetric) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "  %-28s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return b.String()
}
