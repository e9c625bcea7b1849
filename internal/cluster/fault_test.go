package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relalg/internal/fault"
	"relalg/internal/linalg"
	"relalg/internal/value"
)

// expectedShuffleAccounting replays the cluster's own accounting rules over a
// round-robin layout: tuples and wire bytes for every (src, dst) chunk whose
// source partition differs from its destination.
func expectedShuffleAccounting(c *Cluster, parts [][]value.Row, keyCols []int) (tuples, bytes int64) {
	p := c.Partitions()
	for src := range parts {
		chunks := make([][]value.Row, p)
		for _, r := range parts[src] {
			d := int(value.HashRowKey(r, keyCols) % uint64(p))
			chunks[d] = append(chunks[d], r)
		}
		for dst, chunk := range chunks {
			if dst == src || len(chunk) == 0 {
				continue
			}
			tuples += int64(len(chunk))
			if c.Config().SerializeShuffles {
				bytes += int64(len(value.EncodeRows(chunk)))
			} else {
				for _, r := range chunk {
					bytes += int64(r.SizeBytes())
				}
			}
		}
	}
	return tuples, bytes
}

// TestShuffleAccountingPinned pins the exact shuffle tuple/byte counters for
// a known row layout at several partition counts, serialized and not.
func TestShuffleAccountingPinned(t *testing.T) {
	for _, tc := range []struct {
		nodes, perNode int
		serialize      bool
	}{
		{1, 1, true}, {2, 1, true}, {2, 2, true}, {3, 2, true}, {5, 2, true},
		{2, 2, false}, {3, 1, false},
	} {
		c := testCluster(tc.nodes, tc.perNode, tc.serialize)
		rows := intRows(137)
		parts := c.ScatterRoundRobin(rows)
		wantTuples, wantBytes := expectedShuffleAccounting(c, parts, []int{1})
		if _, err := c.Shuffle(parts, []int{1}); err != nil {
			t.Fatal(err)
		}
		s := c.Stats().Snapshot()
		if s.TuplesShuffled != wantTuples {
			t.Errorf("%d×%d serialize=%v: TuplesShuffled = %d, want %d",
				tc.nodes, tc.perNode, tc.serialize, s.TuplesShuffled, wantTuples)
		}
		if s.BytesShuffled != wantBytes {
			t.Errorf("%d×%d serialize=%v: BytesShuffled = %d, want %d",
				tc.nodes, tc.perNode, tc.serialize, s.BytesShuffled, wantBytes)
		}
		if s.ShuffleRounds != 1 {
			t.Errorf("ShuffleRounds = %d, want 1", s.ShuffleRounds)
		}
	}
}

// TestBroadcastAccountingPinned pins broadcast accounting: each destination
// is charged only for rows whose source partition differs from it — p-1
// remote copies of every row in total, never the destination's own rows.
func TestBroadcastAccountingPinned(t *testing.T) {
	for _, tc := range []struct {
		nodes, perNode int
		serialize      bool
		rows           int
	}{
		{2, 2, true, 10}, {3, 1, true, 17}, {5, 2, true, 41},
		{2, 2, false, 10}, {4, 1, false, 23},
	} {
		c := testCluster(tc.nodes, tc.perNode, tc.serialize)
		p := c.Partitions()
		rows := intRows(tc.rows)
		parts := c.ScatterRoundRobin(rows)

		// Expected: every destination receives all rows except its own.
		wantTuples := int64(p-1) * int64(len(rows))
		var wantBytes int64
		for src := range parts {
			if len(parts[src]) == 0 {
				continue
			}
			var per int64
			if tc.serialize {
				per = int64(len(value.EncodeRows(parts[src])))
			} else {
				for _, r := range parts[src] {
					per += int64(r.SizeBytes())
				}
			}
			wantBytes += per * int64(p-1)
		}

		bc, err := c.Broadcast(TaskObserver{}, parts)
		if err != nil {
			t.Fatal(err)
		}
		for dst, got := range bc {
			if len(got) != len(rows) {
				t.Fatalf("partition %d has %d rows, want %d", dst, len(got), len(rows))
			}
		}
		s := c.Stats().Snapshot()
		if s.TuplesShuffled != wantTuples {
			t.Errorf("%d×%d serialize=%v: broadcast TuplesShuffled = %d, want %d",
				tc.nodes, tc.perNode, tc.serialize, s.TuplesShuffled, wantTuples)
		}
		if s.BytesShuffled != wantBytes {
			t.Errorf("%d×%d serialize=%v: broadcast BytesShuffled = %d, want %d",
				tc.nodes, tc.perNode, tc.serialize, s.BytesShuffled, wantBytes)
		}
		if s.BroadcastRounds != 1 {
			t.Errorf("BroadcastRounds = %d, want 1", s.BroadcastRounds)
		}
	}
}

// TestRoundsCountCompletedExchangesOnly asserts the satellite bugfix: an
// exchange that fails (here: permanently crashed delivery tasks) must not
// count as a completed round.
func TestRoundsCountCompletedExchangesOnly(t *testing.T) {
	cfg := Config{Nodes: 2, PartitionsPerNode: 2, SerializeShuffles: true,
		Faults: fault.Config{Seed: 3, PermanentProb: 1, RetryBackoff: -1}}
	c := New(cfg)
	parts := c.ScatterRoundRobin(intRows(40))
	if _, err := c.Shuffle(parts, []int{1}); err == nil {
		t.Fatal("shuffle under permanent faults should fail")
	}
	if _, err := c.Broadcast(TaskObserver{}, parts); err == nil {
		t.Fatal("broadcast under permanent faults should fail")
	}
	s := c.Stats().Snapshot()
	if s.ShuffleRounds != 0 || s.BroadcastRounds != 0 {
		t.Fatalf("aborted exchanges counted as rounds: shuffle=%d broadcast=%d",
			s.ShuffleRounds, s.BroadcastRounds)
	}
	if s.TuplesShuffled != 0 || s.BytesShuffled != 0 {
		t.Fatalf("aborted exchanges charged traffic: tuples=%d bytes=%d",
			s.TuplesShuffled, s.BytesShuffled)
	}
}

// TestBroadcastDeepCopiesRemoteRows asserts the aliasing satellite: a
// destination's remote copies must not share vector backing storage with the
// source rows or with other destinations, whether they arrive through the
// codec or, without it, as deep copies.
func TestBroadcastDeepCopiesRemoteRows(t *testing.T) {
	for _, serialize := range []bool{false, true} {
		c := testCluster(2, 2, serialize)
		vec := value.Vector(linalg.VectorOf(1, 2, 3))
		src := []value.Row{{value.Int(0), vec}}
		parts := make([][]value.Row, c.Partitions())
		parts[0] = src
		bc, err := c.Broadcast(TaskObserver{}, parts)
		if err != nil {
			t.Fatal(err)
		}
		// Partition 1 received a remote copy; scribble on its vector.
		bc[1][0][1].Vec.Data[0] = 99
		if got := src[0][1].Vec.Data[0]; got != 1 {
			t.Fatalf("serialize=%v: source row mutated through partition 1's copy: %v", serialize, got)
		}
		if got := bc[2][0][1].Vec.Data[0]; got != 1 {
			t.Fatalf("serialize=%v: partition 2 shares backing data with partition 1: %v", serialize, got)
		}
		if got := bc[0][0][1].Vec.Data[0]; got != 1 {
			t.Fatalf("serialize=%v: partition 0 (local) mutated through partition 1's copy: %v", serialize, got)
		}
	}
}

// TestParallelRetriesTransientCrashes: with transient crashes at every
// partition, ParallelTasks still succeeds (the final attempt is always clean)
// and the retry counters move.
func TestParallelRetriesTransientCrashes(t *testing.T) {
	cfg := Config{Nodes: 2, PartitionsPerNode: 2,
		Faults: fault.Config{Seed: 11, CrashProb: 1, MaxAttempts: 3, RetryBackoff: time.Microsecond}}
	c := New(cfg)
	var runs atomic.Int64
	seen := make([]atomic.Int64, c.Partitions())
	err := c.ParallelTasks("op", TaskObserver{}, func(p, _ int) (Commit, error) {
		runs.Add(1)
		seen[p].Add(1)
		return Commit{}, nil
	})
	if err != nil {
		t.Fatalf("transient-only faults must converge: %v", err)
	}
	for p := range seen {
		if seen[p].Load() == 0 {
			t.Fatalf("partition %d never ran", p)
		}
	}
	s := c.Stats().Snapshot()
	if s.TaskRetries == 0 {
		t.Fatal("no retries counted under CrashProb=1")
	}
	if s.FaultsInjected == 0 {
		t.Fatal("no faults counted under CrashProb=1")
	}
	// Crashes are drawn after fn completes, so fn runs once per crashed
	// attempt and once more on each partition's committed attempt.
	in := fault.New(cfg.Faults)
	want := int64(c.Partitions())
	for p := range seen {
		for a := 0; in.Crash("op", p, a) != nil; a++ {
			want++
		}
	}
	if runs.Load() != want {
		t.Fatalf("fn ran %d times, want %d", runs.Load(), want)
	}
}

// TestCrashAfterComputeDiscardsCommit: a crash or shuffle fault is drawn
// after the compute, so each failed attempt's compute ran, yet its Install
// never runs and none of its counts reach Stats; the final attempt commits
// exactly once.
func TestCrashAfterComputeDiscardsCommit(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faults fault.Config
		run    func(c *Cluster, fn TaskFn) error
	}{
		{"crash", fault.Config{Seed: 1, CrashProb: 1, MaxAttempts: 3, RetryBackoff: -1},
			func(c *Cluster, fn TaskFn) error { return c.RunTask("op", TaskObserver{}, fn) }},
		{"shuffle", fault.Config{Seed: 1, ShuffleProb: 1, MaxAttempts: 3, RetryBackoff: -1},
			func(c *Cluster, fn TaskFn) error { return c.Exchange("op", TaskObserver{}, fn) }},
	} {
		c := New(Config{Nodes: 1, PartitionsPerNode: 1, Faults: tc.faults})
		var computed, installed []int
		err := tc.run(c, func(_, attempt int) (Commit, error) {
			computed = append(computed, attempt)
			n := int64(attempt)
			return Commit{Produced: 10 + n, Shuffled: 20 + n, WireBytes: 30 + n,
				SpillRuns: 40 + n, SpillBytes: 50 + n, SpillFiles: 60 + n,
				Install: func() error { installed = append(installed, attempt); return nil }}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(computed, []int{0, 1, 2}) || !reflect.DeepEqual(installed, []int{2}) {
			t.Errorf("%s: computed attempts %v, installed %v; want [0 1 2] and [2]", tc.name, computed, installed)
		}
		want := StatsSnapshot{TuplesProduced: 12, TuplesShuffled: 22, BytesShuffled: 32,
			SpillEvents: 42, BytesSpilled: 52, SpillFiles: 62, FaultsInjected: 2, TaskRetries: 2}
		if got := c.Stats().Snapshot(); got != want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, got, want)
		}
	}
}

// TestParallelTasksCommitExactlyOnce: under heavy transient faults plus
// speculation, each partition's commit runs exactly once and results are
// identical to a fault-free run.
func TestParallelTasksCommitExactlyOnce(t *testing.T) {
	cfg := Config{Nodes: 2, PartitionsPerNode: 2,
		Faults: fault.Config{Seed: 5, CrashProb: 0.5, StragglerProb: 1, Speculate: true,
			StragglerDelay: 100 * time.Microsecond, MaxAttempts: 4, RetryBackoff: time.Microsecond}}
	c := New(cfg)
	commits := make([]atomic.Int64, c.Partitions())
	out := make([]int, c.Partitions())
	err := c.ParallelTasks("square", TaskObserver{}, func(part, attempt int) (Commit, error) {
		v := part * part
		return Commit{Produced: int64(part + 1), Install: func() error {
			commits[part].Add(1)
			out[part] = v
			return nil
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range commits {
		if got := commits[p].Load(); got != 1 {
			t.Fatalf("partition %d committed %d times, want exactly 1", p, got)
		}
		if out[p] != p*p {
			t.Fatalf("partition %d result %d, want %d", p, out[p], p*p)
		}
	}
	s := c.Stats().Snapshot()
	if s.SpeculativeLaunches == 0 {
		t.Fatal("no speculative launches counted under StragglerProb=1 + Speculate")
	}
	if want := int64(1 + 2 + 3 + 4); s.TuplesProduced != want {
		t.Fatalf("TuplesProduced = %d, want %d: only the winning attempts charge", s.TuplesProduced, want)
	}
}

// TestPermanentFaultSurfacesTaskError: permanent crashes exhaust retries and
// surface a wrapped TaskError naming operator, partition, and attempt.
func TestPermanentFaultSurfacesTaskError(t *testing.T) {
	cfg := Config{Nodes: 1, PartitionsPerNode: 2,
		Faults: fault.Config{Seed: 2, PermanentProb: 1, RetryBackoff: -1}}
	c := New(cfg)
	err := c.ParallelTasks("hash join", TaskObserver{}, func(p, _ int) (Commit, error) { return Commit{}, nil })
	if err == nil {
		t.Fatal("permanent faults must fail the operation")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error does not match fault.ErrInjected: %v", err)
	}
	var te *fault.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error does not carry a fault.TaskError: %v", err)
	}
	if te.Op != "hash join" {
		t.Errorf("TaskError.Op = %q", te.Op)
	}
	if !strings.Contains(err.Error(), "hash join") || !strings.Contains(err.Error(), "attempt 0") {
		t.Errorf("message does not name operator and attempt: %q", err.Error())
	}
}

// TestShuffleUnderTransientFaultsIsIdentical: at several seeds, a shuffle
// with transient ser-de faults produces partition-for-partition identical
// rows to the fault-free shuffle, with retries observed.
func TestShuffleUnderTransientFaultsIsIdentical(t *testing.T) {
	for _, serialize := range []bool{true, false} {
		base := testCluster(3, 2, serialize)
		rows := intRows(200)
		want, err := base.Shuffle(base.ScatterRoundRobin(rows), []int{1})
		if err != nil {
			t.Fatal(err)
		}
		var sawRetry bool
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := Config{Nodes: 3, PartitionsPerNode: 2, SerializeShuffles: serialize,
				Faults: fault.Config{Seed: seed, ShuffleProb: 1, CrashProb: 0.3,
					MaxAttempts: 3, RetryBackoff: time.Microsecond}}
			fc := New(cfg)
			got, err := fc.Shuffle(fc.ScatterRoundRobin(rows), []int{1})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d serialize=%v: faulted shuffle diverged from fault-free baseline", seed, serialize)
			}
			if fc.Stats().Snapshot().TaskRetries > 0 {
				sawRetry = true
			}
		}
		if !sawRetry {
			t.Fatal("no retries observed across seeds with ShuffleProb=1")
		}
	}
}

// TestRetryObserverReceivesBackoff: the TaskObserver sees the deterministic
// backoff waits that precede re-executions.
func TestRetryObserverReceivesBackoff(t *testing.T) {
	cfg := Config{Nodes: 1, PartitionsPerNode: 2,
		Faults: fault.Config{Seed: 1, CrashProb: 1, MaxAttempts: 3, RetryBackoff: time.Microsecond}}
	c := New(cfg)
	var waited atomic.Int64
	obs := TaskObserver{RetryWait: func(d time.Duration) { waited.Add(int64(d)) }}
	err := c.ParallelTasks("op", obs, func(part, attempt int) (Commit, error) {
		return Commit{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if waited.Load() == 0 {
		t.Fatal("observer saw no backoff despite guaranteed retries")
	}
}

// TestCheckBudgetPeeksWithoutCharging: CheckBudget reports exhaustion but
// never consumes budget or moves counters.
func TestCheckBudgetPeeksWithoutCharging(t *testing.T) {
	c := New(Config{Nodes: 1, PartitionsPerNode: 1, MaxIntermediateTuples: 100})
	if err := c.chargeTuples(90); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckBudget(10); err != nil {
		t.Fatalf("CheckBudget(10) at 90/100 = %v", err)
	}
	if err := c.CheckBudget(11); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("CheckBudget(11) = %v, want ErrResourceExhausted", err)
	}
	// The peek charged nothing: a real charge of 10 still fits.
	if err := c.chargeTuples(10); err != nil {
		t.Fatalf("charge after peek failed: %v", err)
	}
	if got := c.Stats().Snapshot().TuplesProduced; got != 100 {
		t.Fatalf("TuplesProduced = %d, want 100 (peeks must not count)", got)
	}
}

// TestSpeculationRunsAttemptsInSequence pins the speculation rule: a
// straggler's backup computes first, then draws its crash, and commits if it
// succeeds; only a failed backup lets the straggler serve its delay and
// compute; when both fail the lower attempt's error is returned; and no
// attempt id runs twice.
func TestSpeculationRunsAttemptsInSequence(t *testing.T) {
	const delay = 5 * time.Millisecond
	cfg := func(seed uint64, maxAttempts int) Config {
		return Config{Nodes: 1, PartitionsPerNode: 1, Faults: fault.Config{Seed: seed, CrashProb: 0.5,
			StragglerProb: 1, StragglerDelay: delay, Speculate: true, MaxAttempts: maxAttempts, RetryBackoff: -1}}
	}
	// seedWhere returns a seed whose crash draws for attempts 0 and 1 of
	// task "op" are (crash0, crash1).
	seedWhere := func(crash0, crash1 bool) uint64 {
		for seed := uint64(1); ; seed++ {
			in := fault.New(cfg(seed, 3).Faults)
			if (in.Crash("op", 0, 0) != nil) == crash0 && (in.Crash("op", 0, 1) != nil) == crash1 {
				return seed
			}
		}
	}
	// run runs task "op" once and returns the attempt that committed and
	// how often each attempt id computed.
	run := func(c *Cluster, fn TaskFn) (committed int, runs []int64, err error) {
		committed = -1
		counts := make([]atomic.Int64, 4)
		err = c.RunTask("op", TaskObserver{}, func(part, attempt int) (Commit, error) {
			counts[attempt].Add(1)
			cm, err := fn(part, attempt)
			cm.Install = func() error { committed = attempt; return nil }
			return cm, err
		})
		for i := range counts {
			runs = append(runs, counts[i].Load())
		}
		return committed, runs, err
	}
	ok := func(int, int) (Commit, error) { return Commit{}, nil }

	committed, runs, err := run(New(cfg(seedWhere(false, false), 3)), ok)
	if err != nil || committed != 1 || runs[0] != 0 || runs[1] != 1 {
		t.Errorf("backup succeeds: committed %d, runs %v, err %v; want attempt 1, the straggler never computing", committed, runs, err)
	}

	start := time.Now()
	committed, runs, err = run(New(cfg(seedWhere(false, true), 3)), ok)
	if err != nil || committed != 0 || !reflect.DeepEqual(runs, []int64{1, 1, 0, 0}) {
		t.Errorf("backup crashes: committed %d, runs %v, err %v; want attempt 0, after the backup computed and crashed", committed, runs, err)
	}
	if d := time.Since(start); d < delay {
		t.Errorf("backup crashes: the straggler committed after %v, before its delay %v", d, delay)
	}

	_, _, err = run(New(cfg(seedWhere(false, false), 3)), func(_, attempt int) (Commit, error) {
		return Commit{}, fmt.Errorf("compute of attempt %d failed", attempt)
	})
	if err == nil || err.Error() != "compute of attempt 0 failed" {
		t.Errorf("both fail: err %v, want the straggler's (attempt 0)", err)
	}

	// Every attempt but the last fails transiently and straggles, so
	// attempts 0 and 1 are a failed speculation and 2 and 3 a successful one.
	c := New(Config{Nodes: 1, PartitionsPerNode: 1, Faults: fault.Config{Seed: 1, SpillProb: 1,
		StragglerProb: 1, StragglerDelay: time.Microsecond, Speculate: true, MaxAttempts: 4, RetryBackoff: -1}})
	committed, runs, err = run(c, func(_, attempt int) (Commit, error) {
		return Commit{}, c.SpillWriteFault("run", attempt)
	})
	if err != nil || committed != 3 || !reflect.DeepEqual(runs, []int64{1, 1, 0, 1}) {
		t.Errorf("retry after a failed speculation: committed %d, runs %v, err %v; want attempt 3, each id at most once", committed, runs, err)
	}
}
