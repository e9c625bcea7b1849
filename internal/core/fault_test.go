package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"relalg/internal/cluster"
	"relalg/internal/fault"
	"relalg/internal/value"
)

// faultSpillDB is spillTestDB plus an injector configuration: the same join +
// aggregate working set, executed under deterministic injected faults.
func faultSpillDB(t *testing.T, budget int64, faults fault.Config) *Database {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Cluster.Nodes = 2
	cfg.Cluster.PartitionsPerNode = 2
	cfg.Cluster.MemoryBudgetBytes = budget
	cfg.Cluster.Faults = faults
	db := Open(cfg)
	loadSpillTables(t, db)
	return db
}

// transientFaults is the kitchen-sink transient configuration used by the
// property tests: every fault kind armed, retries bounded, speculation on.
func transientFaults(seed uint64) fault.Config {
	return fault.Config{
		Seed:           seed,
		MaxAttempts:    3,
		RetryBackoff:   time.Microsecond,
		CrashProb:      0.5,
		ShuffleProb:    0.5,
		SpillProb:      0.5,
		StragglerProb:  0.3,
		StragglerDelay: 200 * time.Microsecond,
		Speculate:      true,
	}
}

// TestTransientFaultsPreserveResults is the tentpole's acceptance property:
// at every seed, a run with transient-only faults produces results
// row-for-row identical to the fault-free baseline, and the fault counters
// prove the faults actually fired. The join shuffles both inputs, so its
// exchange traffic must match the baseline too: a retried input-stage task or
// delivery charges once.
func TestTransientFaultsPreserveResults(t *testing.T) {
	baseline := mustQuery(t, spillTestDB(t, 0, 0), spillQuery)
	if len(baseline.Rows) != 10 {
		t.Fatalf("baseline groups = %d, want 10", len(baseline.Rows))
	}

	var sawRetry bool
	for seed := uint64(1); seed <= 3; seed++ {
		db := faultSpillDB(t, 0, transientFaults(seed))
		res := mustQuery(t, db, spillQuery)
		if len(res.Rows) != len(baseline.Rows) {
			t.Fatalf("seed %d: rows = %d, want %d", seed, len(res.Rows), len(baseline.Rows))
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !res.Rows[i][j].Equal(baseline.Rows[i][j]) {
					t.Fatalf("seed %d: row %d col %d: faulted %v != baseline %v",
						seed, i, j, res.Rows[i][j], baseline.Rows[i][j])
				}
			}
		}
		if res.Stats.FaultsInjected == 0 {
			t.Fatalf("seed %d: no faults injected despite armed config", seed)
		}
		if res.Stats.TaskRetries > 0 {
			sawRetry = true
		}
		got, want := res.Stats, baseline.Stats
		if got.TuplesShuffled != want.TuplesShuffled || got.BytesShuffled != want.BytesShuffled || got.ShuffleRounds != want.ShuffleRounds {
			t.Fatalf("seed %d: shuffled %d tuples (%d bytes) in %d rounds, fault-free run %d (%d bytes) in %d",
				seed, got.TuplesShuffled, got.BytesShuffled, got.ShuffleRounds, want.TuplesShuffled, want.BytesShuffled, want.ShuffleRounds)
		}
	}
	if !sawRetry {
		t.Fatal("no task retries observed across any seed")
	}
}

// crossAggQuery is the distance computation's shape over the spill tables: a
// grouped MIN over a cross join, which streams into the local aggregate.
const crossAggQuery = `SELECT a.id, MIN(inner_product(a.v, b.v)) AS m
FROM r AS a, r AS b WHERE a.id <> b.id GROUP BY a.id ORDER BY a.id`

// TestTransientFaultsPreserveCrossJoinAggregate runs the same property over the
// cross join → aggregate stage: retried and speculated attempts leave the rows
// unchanged and charge their tuples once, for the winning attempt.
func TestTransientFaultsPreserveCrossJoinAggregate(t *testing.T) {
	baseline := mustQuery(t, spillTestDB(t, 0, 0), crossAggQuery)
	if len(baseline.Rows) != 150 {
		t.Fatalf("baseline groups = %d, want 150", len(baseline.Rows))
	}
	var retries int64
	for seed := uint64(1); seed <= 3; seed++ {
		res := mustQuery(t, faultSpillDB(t, 0, transientFaults(seed)), crossAggQuery)
		if len(res.Rows) != len(baseline.Rows) {
			t.Fatalf("seed %d: rows = %d, want %d", seed, len(res.Rows), len(baseline.Rows))
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !res.Rows[i][j].Equal(baseline.Rows[i][j]) {
					t.Fatalf("seed %d: row %d col %d: faulted %v != baseline %v",
						seed, i, j, res.Rows[i][j], baseline.Rows[i][j])
				}
			}
		}
		if res.Stats.TuplesProduced != baseline.Stats.TuplesProduced {
			t.Fatalf("seed %d: %d tuples produced, fault-free run %d", seed, res.Stats.TuplesProduced, baseline.Stats.TuplesProduced)
		}
		retries += res.Stats.TaskRetries
	}
	if retries == 0 {
		t.Fatal("no task retries observed across any seed")
	}
}

// TestTransientFaultsPreserveOutOfCoreResults runs the same property with a
// memory budget small enough to force spilling, so retried tasks re-execute
// through the external join/aggregation paths — including injected spill
// write failures.
func TestTransientFaultsPreserveOutOfCoreResults(t *testing.T) {
	baseline := mustQuery(t, spillTestDB(t, 0, 0), spillQuery)

	for seed := uint64(1); seed <= 3; seed++ {
		cfg := transientFaults(seed)
		cfg.SpillProb = 1 // every spill write's first attempts fail
		db := faultSpillDB(t, 8<<10, cfg)
		res := mustQuery(t, db, spillQuery)
		if len(res.Rows) != len(baseline.Rows) {
			t.Fatalf("seed %d: rows = %d, want %d", seed, len(res.Rows), len(baseline.Rows))
		}
		for i := range res.Rows {
			for j := range res.Rows[i] {
				if !res.Rows[i][j].Equal(baseline.Rows[i][j]) {
					t.Fatalf("seed %d: row %d col %d: faulted %v != baseline %v",
						seed, i, j, res.Rows[i][j], baseline.Rows[i][j])
				}
			}
		}
		if res.Stats.SpillEvents == 0 {
			t.Fatalf("seed %d: budgeted faulted run never spilled", seed)
		}
		if res.Stats.TaskRetries == 0 {
			t.Fatalf("seed %d: SpillProb=1 run reported no retries", seed)
		}
	}
}

// TestAggregateExchangeRetriesPreserveResults arms only the exchange fault and
// speculated stragglers on a scan-only grouped aggregate, so the one exchange
// in the query is the aggregate's state move. Its destinations are retried
// and backed up, so several attempts run the move, yet the rows stay
// bit-identical to the fault-free run (SUM of -0, NaN and ±Inf included) and
// the state move is charged once: its merge runs in the winning attempt's
// commit, never in a compute, where a failed attempt's merge would be merged
// again by the next.
func TestAggregateExchangeRetriesPreserveResults(t *testing.T) {
	specials := []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	rows := make([]value.Row, 2400)
	for i := range rows {
		g := i % 299 // coprime to the 4 partitions: every group spans all of them
		x := float64(i)*0.1 + 1/float64(i+1)
		switch {
		case g%5 == 0:
			x = math.Copysign(0, -1) // every value of the group is -0
		case g%7 == 0:
			x = specials[i%len(specials)]
		}
		rows[i] = value.Row{value.Int(int64(g)), value.Double(x)}
	}
	const q = "SELECT g, SUM(x), AVG(x), MIN(x) FROM t GROUP BY g"
	run := func(faults fault.Config) *Result {
		cfg := DefaultConfig()
		cfg.Cluster.Nodes = 2
		cfg.Cluster.PartitionsPerNode = 2
		cfg.Cluster.Faults = faults
		db := Open(cfg)
		db.MustExec("CREATE TABLE t (g INTEGER, x DOUBLE)")
		if err := db.LoadTable("t", rows); err != nil {
			t.Fatal(err)
		}
		return mustQuery(t, db, q)
	}
	baseline := run(fault.Config{})
	if len(baseline.Rows) != 299 || baseline.Stats.TuplesShuffled == 0 {
		t.Fatalf("baseline: %d groups, %d tuples shuffled", len(baseline.Rows), baseline.Stats.TuplesShuffled)
	}
	want := value.EncodeRows(baseline.Rows)
	for seed := uint64(1); seed <= 3; seed++ {
		res := run(fault.Config{
			Seed:           seed,
			RetryBackoff:   time.Microsecond,
			ShuffleProb:    0.5,
			StragglerProb:  0.5,
			StragglerDelay: time.Microsecond,
			Speculate:      true,
		})
		if !bytes.Equal(value.EncodeRows(res.Rows), want) {
			t.Fatalf("seed %d: rows differ from the fault-free run", seed)
		}
		got, base := res.Stats, baseline.Stats
		if got.TuplesShuffled != base.TuplesShuffled || got.BytesShuffled != base.BytesShuffled {
			t.Fatalf("seed %d: shuffled %d tuples (%d bytes), fault-free run %d (%d bytes)",
				seed, got.TuplesShuffled, got.BytesShuffled, base.TuplesShuffled, base.BytesShuffled)
		}
		if got.TaskRetries == 0 {
			t.Fatalf("seed %d: no task retries", seed)
		}
	}
}

// TestPermanentFaultSurfacesWrappedError: a permanent fault exhausts the
// retry budget and the query fails with an error that names the failing
// task and matches both fault.ErrInjected and *fault.TaskError.
func TestPermanentFaultSurfacesWrappedError(t *testing.T) {
	db := faultSpillDB(t, 0, fault.Config{Seed: 9, PermanentProb: 1, RetryBackoff: -1})
	_, err := db.Query(spillQuery)
	if err == nil {
		t.Fatal("query under permanent faults succeeded")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error does not match fault.ErrInjected: %v", err)
	}
	var te *fault.TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error does not carry a fault.TaskError: %v", err)
	}
	if te.Op == "" {
		t.Fatalf("TaskError does not name an operator: %+v", te)
	}
}

// TestFaultStatsString: the fault counters render in the stats snapshot only
// when faults actually fired, keeping fault-free output unchanged.
func TestFaultStatsString(t *testing.T) {
	res := mustQuery(t, spillTestDB(t, 0, 0), spillQuery)
	if s := res.Stats.String(); containsWord(s, "fault") {
		t.Fatalf("fault-free stats string mentions faults: %q", s)
	}
	res = mustQuery(t, faultSpillDB(t, 0, transientFaults(1)), spillQuery)
	if s := res.Stats.String(); !containsWord(s, "fault") {
		t.Fatalf("faulted stats string lacks fault counters: %q", s)
	}
}

func containsWord(s, w string) bool {
	for i := 0; i+len(w) <= len(s); i++ {
		if s[i:i+len(w)] == w {
			return true
		}
	}
	return false
}

// TestTransientFaultsKeepExactCounters runs the spilling join + aggregate on
// a 1×1 cluster with an 8 KiB budget under each transient fault kind alone.
// Only the winning attempt of a task is accounted, so every counter but the
// fault bookkeeping equals the fault-free run's: spill runs, bytes and files
// included. Speculated stragglers are deterministic too: twenty runs of one
// seed give one snapshot. (With more than one partition the attempts share
// the query's governor, so spill placement may still vary; not tested here.)
func TestTransientFaultsKeepExactCounters(t *testing.T) {
	run := func(faults fault.Config) cluster.StatsSnapshot {
		cfg := DefaultConfig()
		cfg.Cluster.Nodes, cfg.Cluster.PartitionsPerNode = 1, 1
		cfg.Cluster.MemoryBudgetBytes = 8 << 10
		cfg.Cluster.Faults = faults
		db := Open(cfg)
		loadSpillTables(t, db)
		return mustQuery(t, db, spillQuery).Stats
	}
	exact := func(s cluster.StatsSnapshot) cluster.StatsSnapshot {
		s.FaultsInjected, s.TaskRetries, s.SpeculativeLaunches = 0, 0, 0
		return s
	}
	want := run(fault.Config{})
	if want.SpillEvents == 0 || want.SpillFiles == 0 {
		t.Fatalf("fault-free run did not spill: %v", want)
	}
	kinds := []struct {
		name string
		arm  func(*fault.Config)
	}{
		{"crash", func(c *fault.Config) { c.CrashProb = 0.5 }},
		{"shuffle", func(c *fault.Config) { c.ShuffleProb = 0.5 }},
		{"spill", func(c *fault.Config) { c.SpillProb = 0.5 }},
		{"straggler", func(c *fault.Config) { c.StragglerProb, c.Speculate = 1, true }},
	}
	faulted := func(kind int, seed uint64) fault.Config {
		cfg := fault.Config{Seed: seed, MaxAttempts: 3, RetryBackoff: time.Microsecond, StragglerDelay: 100 * time.Microsecond}
		kinds[kind].arm(&cfg)
		return cfg
	}
	for k, kind := range kinds {
		var fired int64
		for seed := uint64(1); seed <= 4; seed++ {
			got := run(faulted(k, seed))
			fired += got.FaultsInjected
			if exact(got) != want {
				t.Errorf("%s seed %d: %v\nfault-free: %v", kind.name, seed, got, want)
			}
		}
		if fired == 0 {
			t.Errorf("%s: no fault fired over seeds 1-4", kind.name)
		}
	}
	first := run(faulted(3, 2))
	for i := 1; i < 20; i++ {
		if got := run(faulted(3, 2)); got != first {
			t.Fatalf("speculated run %d: %v\nrun 0: %v", i, got, first)
		}
	}
}
