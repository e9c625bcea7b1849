// Package cluster simulates the shared-nothing cluster that the engine and
// all comparison baselines execute on. A cluster is N logical nodes × P
// partition slots; partitioned data is [][]value.Row with one slice per
// partition. Work runs partition-parallel on goroutines; rows that cross
// partitions during a shuffle are (by default) serialized and deserialized
// through the binary row codec so benchmarks pay a realistic network/ser-de
// cost, and every movement is counted in Stats.
//
// The cluster also enforces an intermediate-tuple budget, the mechanism that
// makes the paper's "Fail" entries reproducible: a plan that tries to
// materialize a quadratic tuple blow-up exceeds the budget and aborts.
//
// Fault tolerance: every unit of work is a task (one partition of
// ParallelTasks, one exchange destination, one RunTask), and with
// Config.Faults enabled it runs under a bounded-retry loop with optional
// speculation. A task's compute reads only its immutable input snapshot and
// returns a Commit: what it produced, moved and spilled, and the closure
// installing its result. The runner commits the winning attempt alone,
// charging the counts exactly once, so a transiently-failed attempt is
// discarded without trace and a fault-injected run converges to a result,
// and counters, identical to the fault-free one. Only package cluster writes
// Stats. Permanent failures surface as fault.TaskError naming operator,
// partition, and attempt.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"relalg/internal/fault"
	"relalg/internal/value"
)

// ErrResourceExhausted is returned when a plan exceeds the configured
// intermediate tuple budget (the simulated analogue of running a cluster out
// of memory/disk).
var ErrResourceExhausted = errors.New("cluster: intermediate tuple budget exhausted")

// Config sizes the simulated cluster.
type Config struct {
	// Nodes is the number of simulated machines (the paper used 10).
	Nodes int
	// PartitionsPerNode is the number of parallel slots per machine (the
	// paper's workers had 8 cores).
	PartitionsPerNode int
	// SerializeShuffles encodes/decodes rows through the binary codec on
	// every cross-partition move, charging the ser-de cost that dominates
	// distributed aggregation (Figure 4). Disable for the A3 ablation.
	SerializeShuffles bool
	// MaxIntermediateTuples aborts plans that materialize more than this
	// many tuples (0 = unlimited).
	MaxIntermediateTuples int64
	// NetworkBytesPerSec models per-link network bandwidth: every
	// destination of a shuffle or broadcast waits bytes/bandwidth before
	// its data is available (0 = infinite, no waiting). The paper's
	// Hadoop-era cluster was shuffle-bound; this knob recreates that regime
	// on in-memory hardware.
	NetworkBytesPerSec float64
	// MemoryBudgetBytes caps the bytes of operator working state (hash-join
	// tables, sort buffers, aggregation groups) one query may hold, measured
	// through the row codec's encoded sizes. Operators that would exceed it
	// spill runs to temp files and continue out-of-core instead of aborting.
	// 0 = unlimited: no governor, no spilling — the seed behaviour.
	MemoryBudgetBytes int64
	// Faults configures deterministic fault injection over partition tasks,
	// exchanges, and spill writes. The zero value disables injection and
	// retry entirely — the seed behaviour.
	Faults fault.Config
}

// DefaultConfig mirrors the paper's 10-node, 8-core setup at simulation
// scale: 10 nodes × 2 partitions = 20-way parallelism.
func DefaultConfig() Config {
	return Config{Nodes: 10, PartitionsPerNode: 2, SerializeShuffles: true}
}

// Partitions returns the total number of partition slots.
func (c Config) Partitions() int {
	p := c.Nodes * c.PartitionsPerNode
	if p < 1 {
		return 1
	}
	return p
}

// Stats aggregates movement and volume counters across a run. Only package
// cluster writes them, task work through the winning attempt's Commit;
// Snapshot is safe to call concurrently.
type Stats struct {
	mu sync.Mutex
	s  StatsSnapshot
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s
}

// add adds o's counts into s.
func (s *Stats) add(o StatsSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.s
	t.TuplesShuffled += o.TuplesShuffled
	t.BytesShuffled += o.BytesShuffled
	t.TuplesProduced += o.TuplesProduced
	t.ShuffleRounds += o.ShuffleRounds
	t.BroadcastRounds += o.BroadcastRounds
	t.SpillEvents += o.SpillEvents
	t.BytesSpilled += o.BytesSpilled
	t.SpillFiles += o.SpillFiles
	t.FaultsInjected += o.FaultsInjected
	t.TaskRetries += o.TaskRetries
	t.SpeculativeLaunches += o.SpeculativeLaunches
	t.Replans += o.Replans
}

// StatsSnapshot is a point-in-time copy of Stats.
type StatsSnapshot struct {
	TuplesShuffled      int64 // rows that crossed a partition boundary
	BytesShuffled       int64 // encoded bytes of those rows
	TuplesProduced      int64 // rows materialized by operators
	ShuffleRounds       int64 // exchange operations that completed
	BroadcastRounds     int64
	SpillEvents         int64 // spill runs written under memory pressure
	BytesSpilled        int64 // file bytes of those runs
	SpillFiles          int64 // scratch files those runs were written to
	FaultsInjected      int64 // faults the injector fired
	TaskRetries         int64 // partition-task re-executions after transient failure
	SpeculativeLaunches int64 // backup attempts launched against stragglers
	Replans             int64 // join regions re-optimized mid-query on cardinality divergence
}

func (s StatsSnapshot) String() string {
	out := fmt.Sprintf("shuffled %d tuples (%d bytes) in %d rounds, %d broadcasts, produced %d tuples",
		s.TuplesShuffled, s.BytesShuffled, s.ShuffleRounds, s.BroadcastRounds, s.TuplesProduced)
	if s.SpillEvents > 0 {
		out += fmt.Sprintf(", spilled %d runs (%d bytes) to %d files", s.SpillEvents, s.BytesSpilled, s.SpillFiles)
	}
	if s.FaultsInjected > 0 || s.TaskRetries > 0 || s.SpeculativeLaunches > 0 {
		out += fmt.Sprintf(", injected %d faults (%d retries, %d speculative launches)",
			s.FaultsInjected, s.TaskRetries, s.SpeculativeLaunches)
	}
	if s.Replans > 0 {
		out += fmt.Sprintf(", re-planned %d join regions", s.Replans)
	}
	return out
}

// Cluster is one simulated cluster instance, or one statement's view of it
// (Statement).
type Cluster struct {
	cfg      Config
	stats    Stats
	used     atomic.Int64 // intermediate tuples charged so far
	injector *fault.Injector
	parent   *Cluster // a view's cluster, which End adds its counters into
}

// New creates a cluster from the config.
func New(cfg Config) *Cluster {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	if cfg.PartitionsPerNode <= 0 {
		cfg.PartitionsPerNode = 1
	}
	return &Cluster{cfg: cfg, injector: fault.New(cfg.Faults)}
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Partitions returns the number of partition slots.
func (c *Cluster) Partitions() int { return c.cfg.Partitions() }

// Stats exposes the movement counters.
func (c *Cluster) Stats() *Stats { return &c.stats }

// CountReplan records one join region re-optimized mid-query.
func (c *Cluster) CountReplan() { c.stats.add(StatsSnapshot{Replans: 1}) }

// Statement returns a view of c for one statement. The view shares c's
// configuration, topology and fault injector, and has its own Stats and its
// own intermediate-tuple budget, so concurrent statements neither see nor
// spend each other's work. End, called once when the statement finishes,
// adds the view's counters into c's.
func (c *Cluster) Statement() *Cluster {
	return &Cluster{cfg: c.cfg, injector: c.injector, parent: c}
}

// End adds a statement view's counters into the cluster it was taken from.
func (c *Cluster) End() {
	if c.parent != nil {
		c.parent.stats.add(c.stats.Snapshot())
	}
}

// chargeTuples records that n intermediate tuples were materialized; it
// fails once the configured budget is exhausted. Only commit calls it, for
// the winning attempt: a charge is irrevocable.
func (c *Cluster) chargeTuples(n int64) error {
	c.stats.add(StatsSnapshot{TuplesProduced: n})
	used := c.used.Add(n)
	if c.cfg.MaxIntermediateTuples > 0 && used > c.cfg.MaxIntermediateTuples {
		return fmt.Errorf("%w: %d tuples exceeds budget %d", ErrResourceExhausted, used, c.cfg.MaxIntermediateTuples)
	}
	return nil
}

// CheckBudget reports whether charging extra more tuples would exceed the
// intermediate-tuple budget, without charging anything. Task computes use it
// to abort early; the definitive charge happens when the runner commits.
func (c *Cluster) CheckBudget(extra int64) error {
	if c.cfg.MaxIntermediateTuples <= 0 {
		return nil
	}
	if used := c.used.Load() + extra; used > c.cfg.MaxIntermediateTuples {
		return fmt.Errorf("%w: %d tuples exceeds budget %d", ErrResourceExhausted, used, c.cfg.MaxIntermediateTuples)
	}
	return nil
}

// SpillWriteFault is the spill write-failure injection point; the core wires
// it into the spill manager's hooks so run writes fail transiently under
// fault injection.
func (c *Cluster) SpillWriteFault(label string, attempt int) error {
	return c.fired(c.injector.SpillWrite(label, attempt))
}

// StorageWriteFault is the torn-write injection point for the paged storage
// engine; the core wires it into the store's write hook. Unlike spill
// faults, a fired draw is a simulated crash, not a retryable error.
func (c *Cluster) StorageWriteFault(seq int64, n int) (keep int, fail bool) {
	keep, fail = c.injector.StorageWrite(seq, n)
	if fail {
		c.stats.add(StatsSnapshot{FaultsInjected: 1})
	}
	return keep, fail
}

// fired counts err, an injection point's draw, when it fired.
func (c *Cluster) fired(err error) error {
	if err != nil {
		c.stats.add(StatsSnapshot{FaultsInjected: 1})
	}
	return err
}

// TaskObserver receives retry-related events from the task runner. The zero
// value observes nothing.
type TaskObserver struct {
	// RetryWait is called with each computed backoff duration before a task
	// re-executes (the "retry" timing entry). The duration is a deterministic
	// function of the fault config, not a measurement.
	RetryWait func(time.Duration)
}

// Commit is what a task's compute returns: the intermediate tuples it
// produced, the tuples and wire bytes that moved into it when it is an
// exchange destination, the runs, frame bytes and scratch files it spilled,
// and the closure that installs its result (nil when there is nothing to
// install).
type Commit struct {
	Produced, Shuffled, WireBytes     int64
	SpillRuns, SpillBytes, SpillFiles int64
	Install                           func() error
}

// TaskFn is one partition task's compute. It must treat its inputs as an
// immutable snapshot and write no shared state: it may run once per attempt,
// and attempts of one task never overlap. A fault drawn after it returns
// discards its Commit, so the Commit must hold nothing to release: the
// compute closes its scratch and returns its reservations first. The runner
// commits exactly one winning attempt's Commit.
type TaskFn func(part, attempt int) (Commit, error)

// ParallelTasks runs one task per partition slot with bounded retry and,
// when configured, speculative re-execution of stragglers.
func (c *Cluster) ParallelTasks(op string, obs TaskObserver, fn TaskFn) error {
	p := c.Partitions()
	errs := make([]error, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func(i int) {
			defer wg.Done()
			errs[i] = c.runTask(op, i, obs, fn)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// RunTask runs a single task (partition 0) — the harness for operators that
// execute once over gathered data, like the global sort and LIMIT's gather.
func (c *Cluster) RunTask(op string, obs TaskObserver, fn TaskFn) error {
	return c.runTask(op, 0, obs, fn)
}

// runTask drives one partition task to completion: bounded attempts,
// deterministic backoff between retries, crash/straggler injection, and
// exactly-once commit of the winning attempt.
func (c *Cluster) runTask(op string, part int, obs TaskObserver, fn TaskFn) error {
	max := c.injector.Attempts()
	var lastErr error
	for attempt := 0; attempt < max; attempt++ {
		if attempt > 0 {
			c.stats.add(StatsSnapshot{TaskRetries: 1})
			if d := c.injector.Backoff(attempt); d > 0 {
				if obs.RetryWait != nil {
					obs.RetryWait(d)
				}
				time.Sleep(d)
			}
		}
		cm, last, err := c.executeAttempt(op, part, attempt, fn)
		if err == nil {
			if cerr := c.commit(op, cm); cerr != nil {
				return c.taskErr(op, part, attempt, cerr)
			}
			return nil
		}
		if !fault.Transient(err) {
			return c.taskErr(op, part, attempt, err)
		}
		lastErr = err
		attempt = last
	}
	return &fault.TaskError{Op: op, Part: part, Attempt: max - 1, Err: lastErr}
}

// commit accounts for the winning attempt: it charges the tuples produced,
// tagging a budget failure with op, adds the traffic that moved in and the
// runs it spilled, waits out its modelled transfer once, and installs the
// result.
func (c *Cluster) commit(op string, cm Commit) error {
	if cm.Produced > 0 {
		if err := c.chargeTuples(cm.Produced); err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
	}
	c.stats.add(StatsSnapshot{TuplesShuffled: cm.Shuffled, BytesShuffled: cm.WireBytes,
		SpillEvents: cm.SpillRuns, BytesSpilled: cm.SpillBytes, SpillFiles: cm.SpillFiles})
	c.networkWait(cm.WireBytes)
	if cm.Install == nil {
		return nil
	}
	return cm.Install()
}

// taskErr wraps a task failure for attribution. A first-attempt failure that
// was not injected passes through untouched: it is the same error the
// fault-free cluster would have returned, and callers pin those messages.
func (c *Cluster) taskErr(op string, part, attempt int, err error) error {
	if attempt == 0 && !errors.Is(err, fault.ErrInjected) {
		return err
	}
	return &fault.TaskError{Op: op, Part: part, Attempt: attempt, Err: err}
}

// executeAttempt runs one attempt of a task: straggler delay, the compute,
// then the crash draw. When a straggler may have a backup, the backup (the
// next attempt id) computes and draws its own crash first, with no delay, and
// commits if it succeeds; only if it fails does the straggler serve its delay,
// compute and draw. Attempts of a task never overlap. It returns the highest
// attempt id it used, and on failure the lower attempt's error.
func (c *Cluster) executeAttempt(op string, part, attempt int, fn TaskFn) (Commit, int, error) {
	last := attempt
	if delay := c.injector.Straggle(op, part, attempt); delay > 0 {
		c.stats.add(StatsSnapshot{FaultsInjected: 1})
		if c.injector.Speculate() && attempt+1 < c.injector.Attempts() {
			c.stats.add(StatsSnapshot{SpeculativeLaunches: 1})
			last = attempt + 1
			if cm, err := c.drawAfter(c.injector.Crash, op, part, last, fn); err == nil {
				return cm, last, nil
			}
		}
		time.Sleep(delay)
	}
	cm, err := c.drawAfter(c.injector.Crash, op, part, attempt, fn)
	return cm, last, err
}

// drawAfter runs one attempt's compute, then draws its fault: a task that
// dies after doing its work loses that work, so a fired draw discards the
// completed Commit and the retry computes again.
func (c *Cluster) drawAfter(draw func(op string, part, attempt int) error, op string, part, attempt int, fn TaskFn) (Commit, error) {
	cm, err := fn(part, attempt)
	if err == nil {
		err = c.fired(draw(op, part, attempt))
	}
	if err != nil {
		return Commit{}, err
	}
	return cm, nil
}

// ScatterRoundRobin distributes rows across partitions round-robin (how
// tables are laid out on load).
func (c *Cluster) ScatterRoundRobin(rows []value.Row) [][]value.Row {
	p := c.Partitions()
	parts := make([][]value.Row, p)
	for i, r := range rows {
		parts[i%p] = append(parts[i%p], r)
	}
	return parts
}

// Shuffle hash-repartitions rows on the given key columns: each of the
// Partitions() source partitions buckets its rows by HashRowKey in a task,
// and Deliver moves the buckets.
func (c *Cluster) Shuffle(parts [][]value.Row, keyCols []int) ([][]value.Row, error) {
	p := c.Partitions()
	buckets := make([][][]value.Row, p) // [src][dst]
	err := c.ParallelTasks("bucket", TaskObserver{}, func(src, _ int) (Commit, error) {
		local := make([][]value.Row, p)
		for _, r := range parts[src] {
			d := int(value.HashRowKey(r, keyCols) % uint64(p))
			local[d] = append(local[d], r)
		}
		return Commit{Install: func() error {
			buckets[src] = local
			return nil
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	return c.Deliver("shuffle", TaskObserver{}, buckets)
}

// Exchange is ParallelTasks with one task per destination partition, under
// Deliver, Broadcast and the aggregate's state move: fn's Commit carries the
// tuples and wire bytes that moved in, and each attempt draws the shuffle
// fault after fn completes, discarding that Commit when it fires. Exchange
// counts no rounds; its callers do.
func (c *Cluster) Exchange(op string, obs TaskObserver, fn TaskFn) error {
	return c.ParallelTasks(op, obs, func(dst, attempt int) (Commit, error) {
		return c.drawAfter(c.injector.ShuffleCorrupt, op, dst, attempt, fn)
	})
}

// Deliver is the hash exchange: it moves bucketed rows, buckets[src][dst], to
// their destinations and returns each destination's rows in source order.
// ShuffleRounds counts completed exchanges only.
func (c *Cluster) Deliver(op string, obs TaskObserver, buckets [][][]value.Row) ([][]value.Row, error) {
	out, err := c.receive(op, obs, len(buckets), func(src, dst int) ([]value.Row, []byte) {
		return buckets[src][dst], nil
	})
	if err != nil {
		return nil, err
	}
	c.stats.add(StatsSnapshot{ShuffleRounds: 1})
	return out, nil
}

// Broadcast replicates every row to every partition (used for the small side
// of a cross join). Only the p-1 remote copies of each row are charged as
// network traffic: the destination's own rows stay in place, matching
// Deliver's accounting. BroadcastRounds counts completed broadcasts only.
func (c *Cluster) Broadcast(obs TaskObserver, parts [][]value.Row) ([][]value.Row, error) {
	// Encode each source partition once; every destination decodes the
	// remote chunks independently (the codec round-trip is the ser-de cost
	// of its private copy).
	bufs := make([][]byte, len(parts))
	if c.cfg.SerializeShuffles {
		for src := range parts {
			if len(parts[src]) > 0 {
				bufs[src] = value.EncodeRows(parts[src])
			}
		}
	}
	out, err := c.receive("broadcast", obs, len(parts), func(src, dst int) ([]value.Row, []byte) {
		if src == dst || c.cfg.SerializeShuffles {
			return parts[src], bufs[src]
		}
		// Without a codec round-trip every destination would alias the same
		// vector and matrix data: each gets its own deep copy.
		cp := make([]value.Row, len(parts[src]))
		for i, r := range parts[src] {
			cp[i] = r.DeepClone()
		}
		return cp, nil
	})
	if err != nil {
		return nil, err
	}
	c.stats.add(StatsSnapshot{BroadcastRounds: 1})
	return out, nil
}

// receive runs an Exchange of rows: destination dst receives chunk(src, dst)
// from each of srcs sources, in source order. A chunk that changes partition
// is charged as traffic. With SerializeShuffles it round-trips through the
// binary codec, from its encoded form when chunk returns one; without, it
// arrives as is.
func (c *Cluster) receive(op string, obs TaskObserver, srcs int, chunk func(src, dst int) ([]value.Row, []byte)) ([][]value.Row, error) {
	out := make([][]value.Row, c.Partitions())
	err := c.Exchange(op, obs, func(dst, _ int) (Commit, error) {
		var rows []value.Row
		var tuples, wireBytes int64
		for src := 0; src < srcs; src++ {
			in, buf := chunk(src, dst)
			if src != dst && len(in) > 0 {
				tuples += int64(len(in))
				if c.cfg.SerializeShuffles {
					if buf == nil {
						buf = value.EncodeRows(in)
					}
					wireBytes += int64(len(buf))
					decoded, err := value.DecodeRows(buf)
					if err != nil {
						return Commit{}, err
					}
					in = decoded
				} else {
					for _, r := range in {
						wireBytes += int64(r.SizeBytes())
					}
				}
			}
			rows = append(rows, in...)
		}
		return Commit{Shuffled: tuples, WireBytes: wireBytes, Install: func() error {
			out[dst] = rows
			return nil
		}}, nil
	})
	return out, err
}

// SendValue moves one value to another partition, the way the baselines'
// driver reductions ship each partial: it encodes v, charges one tuple and its
// bytes, waits out the modelled transfer, and returns the decoded copy.
func (c *Cluster) SendValue(v value.Value) (value.Value, error) {
	buf := value.AppendValue(nil, v)
	c.stats.add(StatsSnapshot{TuplesShuffled: 1, BytesShuffled: int64(len(buf))})
	c.networkWait(int64(len(buf)))
	out, _, err := value.DecodeValue(buf)
	return out, err
}

// networkWait models the transfer delay of wireBytes arriving at one
// destination over its network link.
func (c *Cluster) networkWait(wireBytes int64) {
	if c.cfg.NetworkBytesPerSec <= 0 || wireBytes <= 0 {
		return
	}
	time.Sleep(time.Duration(float64(wireBytes) / c.cfg.NetworkBytesPerSec * float64(time.Second)))
}
