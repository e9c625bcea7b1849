package cluster

import (
	"errors"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"relalg/internal/value"
)

func testCluster(nodes, perNode int, serialize bool) *Cluster {
	return New(Config{Nodes: nodes, PartitionsPerNode: perNode, SerializeShuffles: serialize})
}

func intRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(i % 7))}
	}
	return rows
}

func sortedInts(rows []value.Row) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r[0].I
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// gather concatenates partitions in order.
func gather(parts [][]value.Row) []value.Row {
	var out []value.Row
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func TestConfigPartitions(t *testing.T) {
	if got := (Config{Nodes: 10, PartitionsPerNode: 2}).Partitions(); got != 20 {
		t.Fatalf("partitions = %d", got)
	}
	if got := (Config{}).Partitions(); got != 1 {
		t.Fatalf("degenerate partitions = %d", got)
	}
	if New(Config{}).Partitions() != 1 {
		t.Fatal("New should normalize zero config")
	}
}

func TestScatterGatherRoundTrip(t *testing.T) {
	c := testCluster(3, 2, true)
	rows := intRows(100)
	parts := c.ScatterRoundRobin(rows)
	if len(parts) != 6 {
		t.Fatalf("parts = %d", len(parts))
	}
	back := gather(parts)
	if len(back) != 100 {
		t.Fatalf("gathered %d rows", len(back))
	}
	got := sortedInts(back)
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d missing (got %d)", i, v)
		}
	}
}

func TestShufflePreservesRowsAndCoLocates(t *testing.T) {
	for _, serialize := range []bool{true, false} {
		c := testCluster(3, 2, serialize)
		rows := intRows(150)
		parts := c.ScatterRoundRobin(rows)
		shuffled, err := c.Shuffle(parts, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		back := gather(shuffled)
		if len(back) != 150 {
			t.Fatalf("serialize=%v: shuffle lost rows: %d", serialize, len(back))
		}
		keyPart := map[int64]int{}
		for p, prows := range shuffled {
			for _, r := range prows {
				k := r[1].I
				if prev, ok := keyPart[k]; ok && prev != p {
					t.Fatalf("key %d split", k)
				}
				keyPart[k] = p
			}
		}
		if c.Stats().Snapshot().ShuffleRounds != 1 {
			t.Fatal("shuffle round not counted")
		}
		if c.Stats().Snapshot().TuplesShuffled == 0 {
			t.Fatal("no tuples counted as shuffled")
		}
		if serialize && c.Stats().Snapshot().BytesShuffled == 0 {
			t.Fatal("no bytes charged with serialization on")
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, serialize := range []bool{true, false} {
		c := testCluster(2, 2, serialize)
		parts := c.ScatterRoundRobin(intRows(10))
		bc, err := c.Broadcast(TaskObserver{}, parts)
		if err != nil {
			t.Fatal(err)
		}
		for p, rows := range bc {
			if len(rows) != 10 {
				t.Fatalf("partition %d has %d rows, want all 10", p, len(rows))
			}
		}
		if c.Stats().Snapshot().BroadcastRounds != 1 {
			t.Fatal("broadcast round not counted")
		}
	}
}

func TestTupleBudget(t *testing.T) {
	c := New(Config{Nodes: 1, PartitionsPerNode: 1, MaxIntermediateTuples: 100})
	if err := c.chargeTuples(50); err != nil {
		t.Fatal(err)
	}
	if err := c.chargeTuples(50); err != nil {
		t.Fatal(err)
	}
	err := c.chargeTuples(1)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("error = %v, want ErrResourceExhausted", err)
	}
	// A statement view spends its own budget and adds its counts into the
	// cluster's when it ends.
	v := c.Statement()
	if err := v.chargeTuples(100); err != nil {
		t.Fatal(err)
	}
	if err := v.chargeTuples(1); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("view error = %v, want ErrResourceExhausted", err)
	}
	if got := c.Stats().Snapshot().TuplesProduced; got != 101 {
		t.Fatalf("cluster produced %d before End, want 101", got)
	}
	v.End()
	if got := c.Stats().Snapshot().TuplesProduced; got != 202 {
		t.Fatalf("cluster produced %d after End, want 202", got)
	}
}

// TestCommitChargesProducedUnderOp: a task's Produced count is charged at
// commit, and a budget failure names the task's operator.
func TestCommitChargesProducedUnderOp(t *testing.T) {
	c := New(Config{Nodes: 1, PartitionsPerNode: 2, MaxIntermediateTuples: 10})
	var installed atomic.Int64
	err := c.ParallelTasks("probe", TaskObserver{}, func(p, _ int) (Commit, error) {
		return Commit{Produced: 4, Install: func() error {
			installed.Add(1)
			return nil
		}}, nil
	})
	if err != nil || installed.Load() != 2 || c.Stats().Snapshot().TuplesProduced != 8 {
		t.Fatalf("err %v, installed %d, produced %d; want nil, 2, 8", err, installed.Load(), c.Stats().Snapshot().TuplesProduced)
	}
	err = c.RunTask("gather", TaskObserver{}, func(_, _ int) (Commit, error) {
		return Commit{Produced: 3, Install: func() error {
			installed.Add(1)
			return nil
		}}, nil
	})
	if !errors.Is(err, ErrResourceExhausted) || !strings.HasPrefix(err.Error(), "gather: ") {
		t.Fatalf("error = %v, want ErrResourceExhausted tagged \"gather: \"", err)
	}
	if installed.Load() != 2 {
		t.Fatal("a commit over budget installed its result")
	}
}

func TestParallelRunsAllPartitions(t *testing.T) {
	c := testCluster(3, 3, false)
	seen := make([]bool, c.Partitions())
	err := c.ParallelTasks("op", TaskObserver{}, func(p, _ int) (Commit, error) {
		return Commit{Install: func() error {
			seen[p] = true
			return nil
		}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p, s := range seen {
		if !s {
			t.Fatalf("partition %d not visited", p)
		}
	}
	wantErr := errors.New("boom")
	err = c.ParallelTasks("op", TaskObserver{}, func(p, _ int) (Commit, error) {
		if p == 2 {
			return Commit{}, wantErr
		}
		return Commit{}, nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("error = %v", err)
	}
}

func TestPropShuffleIsPermutation(t *testing.T) {
	f := func(seed int64, nodes, rowsRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c := testCluster(int(nodes%5)+1, int(nodes%3)+1, seed%2 == 0)
		n := int(rowsRaw)
		rows := make([]value.Row, n)
		for i := range rows {
			rows[i] = value.Row{value.Int(int64(i)), value.Int(int64(r.Intn(10)))}
		}
		parts := c.ScatterRoundRobin(rows)
		out, err := c.Shuffle(parts, []int{1})
		if err != nil {
			return false
		}
		back := sortedInts(gather(out))
		if len(back) != n {
			return false
		}
		for i, v := range back {
			if v != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkWaitModelsBandwidth(t *testing.T) {
	slow := New(Config{Nodes: 1, PartitionsPerNode: 1, NetworkBytesPerSec: 1e6})
	start := time.Now()
	slow.networkWait(100_000) // 0.1s at 1 MB/s
	if took := time.Since(start); took < 50*time.Millisecond {
		t.Fatalf("wait too short: %v", took)
	}
	// Infinite bandwidth and zero bytes never wait.
	fast := New(Config{Nodes: 1, PartitionsPerNode: 1})
	start = time.Now()
	fast.networkWait(1 << 30)
	slow.networkWait(0)
	if took := time.Since(start); took > 20*time.Millisecond {
		t.Fatalf("unexpected wait: %v", took)
	}
}

func TestShuffleChargesBandwidth(t *testing.T) {
	c := New(Config{Nodes: 2, PartitionsPerNode: 1, SerializeShuffles: true, NetworkBytesPerSec: 2e6})
	rows := make([]value.Row, 200)
	for i := range rows {
		rows[i] = value.Row{value.Int(int64(i)), value.String_("padding-padding-padding")}
	}
	parts := c.ScatterRoundRobin(rows)
	start := time.Now()
	if _, err := c.Shuffle(parts, []int{0}); err != nil {
		t.Fatal(err)
	}
	bytes := c.Stats().Snapshot().BytesShuffled
	if bytes == 0 {
		t.Fatal("no bytes shuffled")
	}
	// The wait should be roughly bytes / bandwidth (loose lower bound: half).
	minWait := time.Duration(float64(bytes) / 2e6 / 2 * float64(time.Second))
	if took := time.Since(start); took < minWait/2 {
		t.Fatalf("shuffle took %v, want at least ~%v for %d bytes", took, minWait, bytes)
	}
}
