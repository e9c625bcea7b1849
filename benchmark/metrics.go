package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef mirrors one entry of BENCHMARK.json; the smoke test checks the
// two agree.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"lat_ms_p50", "ms", "lower", 0.20},
	{"lat_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run. The prefix is the
// engine module the metric belongs to. A metric of a layer the workload
// bypasses reads 0.
var perLayer = []metricDef{
	{name: "sqlparse.parse_us_per_stmt", unit: "us", better: "lower"},
	{name: "plan.build_us_per_stmt", unit: "us", better: "lower"},
	{name: "opt.optimize_us_per_stmt", unit: "us", better: "lower"},
	{name: "opt.rewrites_fired_per_op", unit: "count", better: "higher"},

	{name: "exec.execute_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.join_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.aggregate_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.agg_shuffle_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.scan_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.project_filter_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.sort_ms_per_op", unit: "ms", better: "lower"},
	{name: "exec.tuples_produced_per_op", unit: "count", better: "lower"},
	{name: "exec.input_rows_per_s", unit: "1/s", better: "higher"},

	{name: "cluster.tuples_shuffled_per_op", unit: "count", better: "lower"},
	{name: "cluster.bytes_shuffled_per_op", unit: "B", better: "lower"},
	{name: "cluster.shuffle_rounds_per_op", unit: "count", better: "lower"},
	{name: "cluster.broadcast_rounds_per_op", unit: "count", better: "lower"},
	{name: "cluster.task_retries_per_op", unit: "count", better: "lower"},

	{name: "value.encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "value.decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "value.result_encode_us_per_op", unit: "us", better: "lower"},

	{name: "linalg.matmul_gflops_w1", unit: "GFLOP/s", better: "higher"},
	{name: "linalg.matmul_gflops_wn", unit: "GFLOP/s", better: "higher"},
	{name: "linalg.matmul_scaling_eff", unit: "ratio", better: "higher"},
	{name: "linalg.outer_acc_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "linalg.matvec_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "linalg.flops_per_op", unit: "count", better: "lower"},
	{name: "linalg.kernel_share", unit: "ratio", better: "higher"},

	{name: "storage.pool_hit_ratio", unit: "ratio", better: "higher"},
	{name: "storage.pool_misses_per_op", unit: "count", better: "lower"},
	{name: "storage.evictions_per_op", unit: "count", better: "lower"},
	{name: "storage.writebacks", unit: "count", better: "lower"},
	{name: "storage.pool_peak_mb", unit: "MB", better: "lower"},
	{name: "storage.scan_rows_per_s", unit: "1/s", better: "higher"},
	{name: "storage.scan_rows_per_s_warm", unit: "1/s", better: "higher"},
	{name: "storage.load_rows_per_s", unit: "1/s", better: "higher"},
	{name: "storage.append_mb_s", unit: "MB/s", better: "higher"},
	{name: "storage.reopen_ms", unit: "ms", better: "lower"},
	{name: "storage.space_amp", unit: "ratio", better: "lower"},

	{name: "spill.spill_ms_per_op", unit: "ms", better: "lower"},
	{name: "spill.bytes_per_op", unit: "B", better: "lower"},
	{name: "spill.runs_per_op", unit: "count", better: "lower"},
	{name: "spill.slowdown_x", unit: "ratio", better: "lower"},

	{name: "serve.lat_ms_p50.agg_hit", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p90.agg_hit", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p50.point_miss", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p90.point_miss", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p50.la_hit", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p90.la_hit", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p50.wide_rows", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p90.wide_rows", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p50.insert", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p90.insert", unit: "ms", better: "lower"},
	{name: "serve.lat_ms_p99", unit: "ms", better: "lower"},
	{name: "serve.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.admission_waits", unit: "count", better: "lower"},
	{name: "serve.peak_concurrent", unit: "count", better: "higher"},
	{name: "serve.statement_errors", unit: "count", better: "lower"},
	{name: "serve.wire_send_us_per_op", unit: "us", better: "lower"},
	{name: "serve.server_wait_us_per_op", unit: "us", better: "lower"},
	{name: "serve.recv_decode_us_per_op", unit: "us", better: "lower"},
	{name: "serve.reply_bytes_per_op", unit: "B", better: "lower"},
	{name: "serve.frame_mb_s", unit: "MB/s", better: "higher"},

	{name: "core.ctas_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.ddl_ms_per_op", unit: "ms", better: "lower"},
	{name: "core.load_rows_per_s", unit: "1/s", better: "higher"},

	{name: "runtime.alloc_mb_per_op", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles_per_op", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_total", unit: "ms", better: "lower"},

	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// quantile returns the nearest-rank q-quantile of xs, which it sorts.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0: a layer that did nothing has no ratio.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// resetPeakRSS restarts the kernel's resident-set high-water mark for this
// process at its current resident set (clear_refs value 5, Linux 4.0 on).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since the
// process started or resetPeakRSS last succeeded.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}
