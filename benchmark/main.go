// Command benchmark is the repository's one benchmark: the paper's Gram,
// regression and distance computations, a relational baseline, an
// out-of-core run and a served statement mix, each timed end to end and, in
// a separate traced run, layer by layer. See README.md in this directory.
//
// The driver's form, one run of one workload in this process:
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// -all runs every workload untraced and traced, -aa runs every workload
// twice and compares the two; both start one child process per run, one
// after the other.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

func main() {
	var cfg runConfig
	var all, aa bool
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run in this process")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.BoolVar(&cfg.tiny, "tiny", false, "smoke-test sizes")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for trace files and temporary data")
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced, each in a child process")
	flag.BoolVar(&aa, "aa", false, "run every workload twice and compare the end-to-end metrics")
	flag.Parse()
	cfg.traced = trace != 0

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case all:
		err = runAll(cfg)
	case aa:
		err = runAA(cfg)
	case cfg.workload == "":
		err = errors.New("name a workload with -workload, or use -all or -aa; workloads: " + strings.Join(workloadNames(), ", "))
	default:
		err = runOne(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, b := range workloads {
		names[i] = b.name
	}
	return names
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the run's metadata, printed on its own line before the result.
type record struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      int     `json:"trace"`
	Sizes      string  `json:"sizes"`
	Seconds    float64 `json:"seconds"`
	GitRev     string  `json:"git_rev"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Ops        int     `json:"ops"`
	Samples    int     `json:"samples"`
	SetupReps  int     `json:"setup_reps"`
	// RSSProcessWide is set when the kernel refused to reset the resident-set
	// high-water mark, so peak_rss_mb is the process-wide one.
	RSSProcessWide bool   `json:"rss_process_wide,omitempty"`
	FirstError     string `json:"first_error,omitempty"`
}

// gitRev is the revision the binary was built from, when the build saw one.
func gitRev() string {
	rev, dirty := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// runOne runs one workload in this process and prints its metrics, its
// record and, last, the result line.
func runOne(cfg runConfig, out io.Writer) error {
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	// Every temporary file lives under one directory inside the checkout:
	// data directories by name, spill directories through TMPDIR.
	outAbs, err := filepath.Abs(cfg.outDir)
	if err != nil {
		return err
	}
	cfg.tmpDir, err = os.MkdirTemp(outAbs, "tmp-")
	if err != nil {
		return err
	}
	old, had := os.LookupEnv("TMPDIR")
	if err := os.Setenv("TMPDIR", cfg.tmpDir); err != nil {
		return err
	}
	res, runErr := runWorkload(cfg)
	if had {
		err = os.Setenv("TMPDIR", old)
	} else {
		err = os.Unsetenv("TMPDIR")
	}
	if err != nil {
		return err
	}
	left, err := os.ReadDir(cfg.tmpDir)
	if err == nil && len(left) > 0 {
		err = fmt.Errorf("%d temporary entries remain in %s, first %s", len(left), cfg.tmpDir, left[0].Name())
	}
	if err := errors.Join(runErr, err, os.RemoveAll(cfg.tmpDir)); err != nil {
		return err
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(out, "== %s seed=%d trace=%d ==\n", cfg.workload, cfg.seed, btoi(cfg.traced))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok && !cfg.traced {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %v", cfg.workload, d.name, v)
		}
		line.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(out, "%s %s %s\n", d.name, d.unit, strconv.FormatFloat(v, 'g', -1, 64))
	}
	if len(res.metrics) > len(line.Metrics) {
		return fmt.Errorf("%s: measured %d metrics, %d are declared", cfg.workload, len(res.metrics), len(line.Metrics))
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Trace: btoi(cfg.traced), Sizes: "full", Seconds: cfg.seconds,
		GitRev: gitRev(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Ops: res.attempted, Samples: res.samples, SetupReps: res.setupReps, RSSProcessWide: res.rssProcessWide,
	}
	if cfg.tiny {
		rec.Sizes = "tiny"
	}
	if res.firstErr != nil {
		rec.FirstError = res.firstErr.Error()
	}
	if err := printJSON(out, "record ", rec); err != nil {
		return err
	}
	return printJSON(out, "", line)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printJSON(out io.Writer, prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s%s\n", prefix, data)
	return err
}

// child runs one workload in a process of its own, so that workloads never
// share a heap or a high-water mark, relays what it prints, and returns its
// result line.
func child(cfg runConfig, traced bool) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(btoi(traced)), "-out", cfg.outDir,
	}
	if cfg.tiny {
		args = append(args, "-tiny")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if _, werr := os.Stdout.Write(stdout); err == nil {
		err = werr
	}
	if err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w", cfg.workload, btoi(traced), err)
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", cfg.workload, err)
	}
	return &line, nil
}

// runAll runs every workload untraced and then traced, one child at a time,
// and fails if any op of any run failed.
func runAll(cfg runConfig) error {
	var bad []string
	for _, b := range workloads {
		cfg.workload = b.name
		for _, traced := range []bool{false, true} {
			line, err := child(cfg, traced)
			if err != nil {
				return err
			}
			if line.Failed > 0 {
				bad = append(bad, fmt.Sprintf("%s (trace %d): %d of %d ops failed", b.name, btoi(traced), line.Failed, line.Attempted))
			}
		}
	}
	if bad != nil {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// runAA measures the same code twice: two passes over the workloads, so the
// two runs of a workload are as far apart in time as two sets of the
// driver's. It fails if any end-to-end metric differs between its two runs
// by more than the metric's bound.
func runAA(cfg runConfig) error {
	runs := map[string][2]*resultLine{}
	for pass := 0; pass < 2; pass++ {
		for _, b := range workloads {
			cfg.workload = b.name
			line, err := child(cfg, false)
			if err != nil {
				return err
			}
			if line.Failed > 0 {
				return fmt.Errorf("%s: %d of %d ops failed", b.name, line.Failed, line.Attempted)
			}
			pair := runs[b.name]
			pair[pass] = line
			runs[b.name] = pair
		}
	}
	fmt.Printf("\n%-16s %-12s %12s %12s %8s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	var over []string
	for _, b := range workloads {
		for _, d := range endToEnd {
			a, z := runs[b.name][0].Metrics[d.name].Value, runs[b.name][1].Metrics[d.name].Value
			diff := math.Abs(z-a) / a
			mark := ""
			if diff > d.bound {
				mark = "  over"
				over = append(over, b.name+"/"+d.name)
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %7.2f%% %6.0f%%%s\n", b.name, d.name, a, z, diff*100, d.bound*100, mark)
		}
	}
	if over != nil {
		return fmt.Errorf("A/A runs differ by more than the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
