// Command benchmark is the repo's one benchmark rig: four fixed workloads
// (join-sparse, join-dense, serve-mixed, store-churn) that drive the public
// treejoin API, the surviving TED kernel and the treejoind binary from
// outside, check that every output is correct, and print end-to-end and
// per-layer metrics by name. README.md in this directory says what each
// workload is for, what every metric means on it, and how the metrics
// interact; BENCHMARK.json at the repo root fixes the regression bounds.
//
//	go run ./benchmark -workload all -seed 1          every workload, untraced
//	go run ./benchmark -workload join-dense -trace 1  one workload, per-layer metrics
//	go run ./benchmark -workload all -trace out.json  traced, spans written to out.json
//	go run ./benchmark -sets 2 -runs 10               the driver's own steadiness check
//
// The last line of a single-workload run is one JSON object: correct,
// attempted, failed and the metrics (end-to-end untraced, per-layer traced).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// setupReps is how often a run repeats its set-up; setup_s is the median, so
// one slow link step or page-cache miss does not decide it.
const setupReps = 3

// buildDir holds everything a run writes: the treejoind binary and a
// per-run scratch directory. It sits inside the checkout and is ignored by
// git.
const buildDir = ".bench_build"

type runOpts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string // file the spans go to; "" keeps them in memory only
}

// runData is what one run of a workload produced.
type runData struct {
	r      readings
	ck     checks
	digest string // SHA-256 of the workload's reference pair list
	traces []processSpans
}

// processSpans is the spans one process of a traced run recorded.
type processSpans struct {
	Process string             `json:"process"`
	SelfS   map[string]float64 `json:"self_s_by_name"`
	Spans   []span             `json:"spans"`
}

func main() {
	runtime.GOMAXPROCS(workers)
	var (
		workload = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 25, "length of the measured phase")
		trace    = flag.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced, spans written there")
		sets     = flag.Int("sets", 0, "run this many sets of runs and compare them against BENCHMARK.json's bounds")
		runs     = flag.Int("runs", 1, "runs per workload in each set, each with its own seed")
		child    = flag.String("child", "", "internal: run one measuring phase in this process")
		config   = flag.String("config", "", "internal: the phase's configuration")
	)
	flag.Parse()
	if *child != "" {
		if err := runPhase(*child, *config); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s child: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}

	o := runOpts{workload: *workload, seed: *seed, seconds: *seconds}
	switch *trace {
	case "0":
	case "1":
		o.trace = true
	default:
		o.trace, o.traceOut = true, *trace
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	} else if !known(o.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}

	if *sets > 0 {
		os.Exit(runSets(names, o, *sets, *runs))
	}
	printEnv(o.seed)
	failed := false
	var traces []processSpans
	for _, name := range names {
		o.workload = name
		res, spans, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			os.Exit(1)
		}
		traces = append(traces, spans...)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		failed = failed || !res.Correct
	}
	if o.traceOut != "" {
		blob, err := json.MarshalIndent(traces, "", " ")
		if err == nil {
			err = os.WriteFile(o.traceOut, blob, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", o.traceOut, err)
			os.Exit(1)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func known(name string) bool { return slices.Contains(workloadNames, name) }

// printEnv records where and on what the numbers were taken.
func printEnv(seed int64) {
	cpu := "unknown"
	if text, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(text), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# go %s, cpu %q, nproc %d, GOMAXPROCS %d, commit %s, seed %d\n",
		runtime.Version(), cpu, runtime.NumCPU(), workers, commit, seed)
	fmt.Println("# reads are served from the OS page cache and fsync costs what this sandbox charges, not what a device would")
}

// runWorkload runs one workload once: set-up (repeated, timed), the measured
// phase in child processes, the correctness checks, and the report.
func runWorkload(o runOpts) (result, []processSpans, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return result{}, nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(dir)

	d := &runData{r: readings{}}
	switch o.workload {
	case joinSparse, joinDense:
		err = benchJoin(joinWorkloads[o.workload], o, dir, d)
	case serveMixed:
		err = benchServe(o, dir, d)
	case storeChurn:
		err = benchStore(o, dir, d)
	}
	if err != nil {
		return result{}, nil, err
	}
	if want, ok := baseline.Digests[o.workload]; ok && o.seed == baseline.Seed {
		d.ck.expect(d.digest == want, "pair digest %s differs from the one recorded at seed %d, %s: the generated inputs or the join result changed", d.digest, o.seed, want)
	}
	d.r.set("failed_share", float64(d.ck.Failed)/float64(d.ck.Attempted), d.ck.Attempted)
	for name := range d.r {
		if !registered(name) {
			return result{}, nil, fmt.Errorf("measured %q, which neither metric table lists", name)
		}
	}

	fmt.Printf("## %s seed=%d seconds=%g trace=%v pairs-sha256=%s\n", o.workload, o.seed, o.seconds, o.trace, d.digest)
	res := result{Correct: d.ck.Failed == 0, Attempted: d.ck.Attempted, Failed: d.ck.Failed}
	if o.trace {
		res.Metrics = report(os.Stdout, perLayer, d.r)
	} else {
		res.Metrics = report(os.Stdout, endToEnd, d.r)
	}
	for _, m := range d.ck.Msgs {
		fmt.Printf("FAILED %s\n", m)
	}
	return res, d.traces, nil
}

// timeSetup runs a workload's set-up setupReps times and returns the median
// wall time. Each rep redoes all of it; the last rep's products are the ones
// the measured phase uses.
func timeSetup(setup func(rep int) error) (float64, error) {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// runChild re-executes this binary to run one measuring phase in a process
// of its own, so that the phase's peak RSS is that process's ru_maxrss and
// nothing set-up allocated. The child prints its result as one JSON line,
// decoded into out; the return value is its peak RSS in MB.
func runChild(phase string, cfg, out any) (float64, error) {
	cmd, err := childCommand(phase, cfg)
	if err != nil {
		return 0, err
	}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s child: %w", phase, err)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), out); err != nil {
		return 0, fmt.Errorf("%s child: decoding its result: %w", phase, err)
	}
	return maxRSSMB(cmd), nil
}

func childCommand(phase string, cfg any) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", phase, "-config", string(blob))
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	return cmd, nil
}

// childEnv pins every process the rig starts to two scheduler threads and
// keeps its temporary files inside the checkout.
func childEnv() []string {
	tmp, err := filepath.Abs(buildDir)
	if err != nil {
		tmp = buildDir
	}
	return append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers), "TMPDIR="+tmp)
}

// maxRSSMB is a finished child's peak resident set. Linux reports ru_maxrss
// in KiB.
func maxRSSMB(cmd *exec.Cmd) float64 {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// runPhase is the child side of runChild.
func runPhase(phase, config string) error {
	switch phase {
	case "join":
		return decodeRunEncode(config, runJoin)
	case "ingest":
		return decodeRunEncode(config, runIngest)
	case "reopen":
		return decodeRunEncode(config, runReopen)
	}
	return fmt.Errorf("unknown phase")
}

func decodeRunEncode[C, O any](config string, run func(C) (O, error)) error {
	var c C
	if err := json.Unmarshal([]byte(config), &c); err != nil {
		return err
	}
	out, err := run(c)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}
