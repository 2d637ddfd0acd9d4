// Command perfbench is the geomds benchmark: it runs one workload, checks
// that the program's outputs are correct, and prints every metric by name
// and unit, the result object on the last line of standard output.
//
//	bash perfbench/run.sh --workload wire_rw --seed 1 --seconds 12 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload once more with spans recorded around every layer and reports
// the per-layer metrics, and the tracing overhead. README.md describes the
// workloads and the metrics.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// maxProcs caps the Go scheduler: the servers and the load generator share
// one process on a 2-core budget.
const maxProcs = 2

// errIncorrect marks a failed correctness check: the run reports its
// metrics with "correct": false and exits non-zero.
var errIncorrect = errors.New("correctness check failed")

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workdir holds span files; tmp, under it, the run's data directories.
	workdir, tmp string
}

// runners maps each workload name to its runner.
var runners = map[string]func(context.Context, options) (*results, error){
	"wire_rw": func(ctx context.Context, o options) (*results, error) {
		return runWire(ctx, o, func(seed int64) wireLoad { return newRWLoad(seed) })
	},
	"wire_cached_zipf": func(ctx context.Context, o options) (*results, error) {
		return runWire(ctx, o, func(seed int64) wireLoad { return newZipfLoad(seed) })
	},
	"workflow_montage_mi": runWorkflow,
}

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	var seconds, trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 12, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics, 0 the end-to-end ones")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for span files and the run's data")
	flag.Parse()
	runner, ok := runners[o.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o.tmp = tmp

	res, err := runner(context.Background(), o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		if res != nil && errors.Is(err, errIncorrect) {
			res.write(os.Stdout, o.workload, metricSet(o.trace), false) //nolint:errcheck // exiting non-zero anyway
		}
		return 1
	}
	if err := res.write(os.Stdout, o.workload, metricSet(o.trace), true); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func metricSet(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

func workloadNames() string {
	names := make([]string, 0, len(runners))
	for n := range runners {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
