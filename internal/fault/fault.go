// Package fault is the deterministic fault-injection layer for the simulated
// shared-nothing cluster. The paper's platform argument leans on SimSQL
// inheriting Hadoop's fault tolerance "for free"; this package is what lets
// the simulation exercise (and test) that property: partition-task crashes,
// transient shuffle ser-de corruption, spill-file write failures, and
// straggler delays, all decided by a seeded splitmix64 draw keyed on
// (injection site, partition, attempt) so every run at a given seed injects
// exactly the same faults.
//
// Determinism contract (pinned by TestDrawsAreDeterministicPerSeed): no
// wall-clock reads, no global math/rand — every decision is a pure function
// of (Config.Seed, site, partition, attempt), plus a per-label monotone
// counter for spill sites that is itself deterministic because each retry of
// a partition task replays the same label sequence at the next attempt
// number.
//
// Transient-fault guarantee: a transient fault never fires on a task's final
// allowed attempt (attempt >= Attempts()-1 draws are suppressed), so under
// transient-only injection every task eventually succeeds at ANY seed and the
// query result is bit-identical to the fault-free run. Permanent faults
// (PermanentProb) are keyed without the attempt number: once drawn for a
// (site, partition) they fire on every retry, exhaust the attempt budget, and
// surface as a TaskError naming operator, partition, and attempt.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// DefaultMaxAttempts bounds retries per partition task when Config.MaxAttempts
// is unset: the first attempt plus two re-executions.
const DefaultMaxAttempts = 3

// defaultBackoff is the base deterministic retry backoff when
// Config.RetryBackoff is unset. It doubles per attempt (see Backoff).
const defaultBackoff = 100 * time.Microsecond

// defaultStragglerDelay is the injected slowdown when StragglerProb fires and
// Config.StragglerDelay is unset.
const defaultStragglerDelay = time.Millisecond

// Config enables and sizes the injection layer; the zero value disables it
// entirely. Probabilities are per injection point in [0, 1].
type Config struct {
	// Seed keys every draw; two clusters with the same seed and workload
	// inject identical faults.
	Seed uint64
	// MaxAttempts bounds executions per partition task (first attempt
	// included); 0 means DefaultMaxAttempts.
	MaxAttempts int
	// RetryBackoff is the base deterministic wait before a retry; it doubles
	// per attempt. 0 means a small default; negative disables waiting.
	RetryBackoff time.Duration
	// CrashProb injects a transient partition-task crash after the attempt's
	// compute completes: the task dies having done its work, and the runner
	// discards that work and re-runs the compute.
	CrashProb float64
	// PermanentProb injects a permanent crash: drawn per (site, partition)
	// without the attempt, so retries cannot clear it.
	PermanentProb float64
	// ShuffleProb injects a transient ser-de error into an exchange
	// destination's attempt, drawn after it has received its incoming rows;
	// the runner discards what it received and re-runs the move.
	ShuffleProb float64
	// SpillProb injects a transient spill-run write failure, keyed by the
	// run's label and the owning task's attempt.
	SpillProb float64
	// StragglerProb marks a task attempt as a straggler: it is delayed by
	// StragglerDelay, and (with Speculate) a backup attempt runs first.
	StragglerProb float64
	// TornWriteProb injects a torn storage write: a physical write to the
	// paged storage engine (a data page or a journal frame) is truncated to
	// a seeded prefix and the process is treated as crashed. Unlike the
	// transient faults above this is NOT retryable — it simulates losing
	// power mid-write — so the store fails the operation and recovery on the
	// next Open must discard exactly the unfinished tail. The draw is keyed
	// by the write's sequence number, so a given seed crashes at the same
	// write every run. Depending on where the cut lands, replay observes
	// either a short read (a frame or page header cut mid-field) or a torn
	// frame (a complete-looking length prefix whose payload checksum fails);
	// both must recover to the last committed state.
	TornWriteProb float64
	// StorageFailAfter, when > 0, deterministically tears the Nth storage
	// write (1-based) regardless of TornWriteProb — the knob the recovery
	// tests sweep to place a crash at every page and journal-frame boundary.
	StorageFailAfter int64
	// StragglerDelay is the injected slowdown; 0 means a small default.
	StragglerDelay time.Duration
	// Speculate backs up straggler attempts: the backup (the next attempt
	// id) runs first, without delay, and commits if it succeeds; only if it
	// fails does the straggler serve its delay and compute. Attempts never
	// overlap, so nothing depends on timing, and results are unaffected
	// because both attempts compute from the same immutable snapshot.
	Speculate bool
}

// Enabled reports whether any injection point is active.
func (c Config) Enabled() bool {
	return c.CrashProb > 0 || c.PermanentProb > 0 || c.ShuffleProb > 0 ||
		c.SpillProb > 0 || c.StragglerProb > 0 || c.TornWriteProb > 0 ||
		c.StorageFailAfter > 0
}

// Attempts returns the effective per-task attempt bound.
func (c Config) Attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

// ErrInjected is the sentinel wrapped by every injected fault; errors.Is
// distinguishes injected failures from real ones in tests and sweeps.
var ErrInjected = errors.New("fault: injected")

// injected is the concrete injected-fault error: Kind names the injection
// point, Transient tells the retry layer whether re-execution can clear it.
type injected struct {
	Kind      string
	Transient bool
	Detail    string
}

func (e *injected) Error() string {
	mode := "permanent"
	if e.Transient {
		mode = "transient"
	}
	return fmt.Sprintf("fault: injected %s %s (%s)", mode, e.Kind, e.Detail)
}

func (e *injected) Unwrap() error { return ErrInjected }

// Transient reports whether err (anywhere in its chain) is an injected fault
// that a bounded re-execution of the task can clear. Real errors — codec
// corruption, budget exhaustion, expression failures — are never transient.
func Transient(err error) bool {
	var inj *injected
	return errors.As(err, &inj) && inj.Transient
}

// TaskError wraps a partition task's final failure with the operator,
// partition, and attempt that observed it — the diagnosability contract for
// permanent faults. Unwrap keeps errors.Is/As matching the cause.
type TaskError struct {
	Op      string
	Part    int
	Attempt int
	Err     error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %s[p%d] attempt %d: %v", e.Op, e.Part, e.Attempt, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// Injector makes the deterministic injection decisions for one cluster. A nil
// injector is valid and injects nothing, so fault-free paths pay only a nil
// check.
type Injector struct {
	cfg  Config
	seed uint64
}

// New returns an injector for the config, or nil when injection is disabled.
func New(cfg Config) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	return &Injector{cfg: cfg, seed: splitmix64(cfg.Seed ^ 0x6c61666175746c74)}
}

// Attempts returns the per-task attempt bound (nil-safe: 1 when disabled,
// since without injection no error is retryable).
func (in *Injector) Attempts() int {
	if in == nil {
		return 1
	}
	return in.cfg.Attempts()
}

// Speculate reports whether straggler attempts get a speculative backup.
func (in *Injector) Speculate() bool { return in != nil && in.cfg.Speculate }

// Backoff returns the deterministic wait before re-running attempt (1-based
// retry count: the wait before attempt n). It doubles per retry, capped at
// 16x base, and is a computed value — recording it in a timing table is
// deterministic.
func (in *Injector) Backoff(attempt int) time.Duration {
	if in == nil {
		return 0
	}
	base := in.cfg.RetryBackoff
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = defaultBackoff
	}
	shift := attempt - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 4 {
		shift = 4
	}
	return base << uint(shift)
}

// transientOK reports whether a transient fault may fire at this attempt: the
// final allowed attempt is always clean, which is what bounds retries and
// guarantees convergence at any seed.
func (in *Injector) transientOK(attempt int) bool {
	return attempt < in.cfg.Attempts()-1
}

// Crash decides whether task (op, part) crashes at the end of attempt, after
// its compute. The permanent draw is keyed without the attempt so it fires on
// every retry.
func (in *Injector) Crash(op string, part, attempt int) error {
	if in == nil {
		return nil
	}
	if in.cfg.PermanentProb > 0 && in.draw("perm-crash", fnv64(op), part, 0) < in.cfg.PermanentProb {
		return &injected{Kind: "crash", Transient: false,
			Detail: fmt.Sprintf("%s partition %d attempt %d", op, part, attempt)}
	}
	if in.cfg.CrashProb > 0 && in.transientOK(attempt) &&
		in.draw("crash", fnv64(op), part, attempt) < in.cfg.CrashProb {
		return &injected{Kind: "crash", Transient: true,
			Detail: fmt.Sprintf("%s partition %d attempt %d", op, part, attempt)}
	}
	return nil
}

// ShuffleCorrupt decides whether exchange op's destination dst observes a
// transient ser-de failure in attempt's incoming rows, once they are received.
func (in *Injector) ShuffleCorrupt(op string, dst, attempt int) error {
	if in == nil || in.cfg.ShuffleProb <= 0 || !in.transientOK(attempt) {
		return nil
	}
	if in.draw("shuffle", fnv64(op), dst, attempt) < in.cfg.ShuffleProb {
		return &injected{Kind: "shuffle ser-de error", Transient: true,
			Detail: fmt.Sprintf("%s destination %d attempt %d", op, dst, attempt)}
	}
	return nil
}

// SpillWrite decides whether the spill run labelled label fails to write
// during the owning task's attempt. Labels embed operator and partition, so
// the draw is keyed like every other site; a retried task replays the same
// labels at the next attempt and the final attempt is always clean.
func (in *Injector) SpillWrite(label string, attempt int) error {
	if in == nil || in.cfg.SpillProb <= 0 || !in.transientOK(attempt) {
		return nil
	}
	if in.draw("spill", fnv64(label), 0, attempt) < in.cfg.SpillProb {
		return &injected{Kind: "spill write failure", Transient: true,
			Detail: fmt.Sprintf("run %q attempt %d", label, attempt)}
	}
	return nil
}

// StorageWrite decides whether the seq'th physical storage write (1-based;
// n payload bytes) is torn. When it fires, keep is the deterministic number
// of bytes (in [0, n)) that reach the file before the simulated crash: the
// store writes the prefix, fails the operation, and refuses further writes —
// recovery at the next Open discards the torn tail. A keep that lands inside
// a header simulates a short read at replay; one that lands inside a payload
// leaves a checksum-corrupt torn frame.
func (in *Injector) StorageWrite(seq int64, n int) (keep int, fail bool) {
	if in == nil || n < 0 {
		return 0, false
	}
	fire := in.cfg.StorageFailAfter > 0 && seq == in.cfg.StorageFailAfter
	if !fire && in.cfg.TornWriteProb > 0 {
		fire = in.draw("torn-write", uint64(seq), 0, 0) < in.cfg.TornWriteProb
	}
	if !fire {
		return 0, false
	}
	if n == 0 {
		return 0, true
	}
	cut := in.draw("torn-write-cut", uint64(seq), 0, 0)
	return int(cut * float64(n)), true
}

// Straggle returns the injected delay for task (op, part) at attempt, or 0.
func (in *Injector) Straggle(op string, part, attempt int) time.Duration {
	if in == nil || in.cfg.StragglerProb <= 0 {
		return 0
	}
	if in.draw("straggle", fnv64(op), part, attempt) < in.cfg.StragglerProb {
		if in.cfg.StragglerDelay > 0 {
			return in.cfg.StragglerDelay
		}
		return defaultStragglerDelay
	}
	return 0
}

// draw returns a uniform float in [0, 1) keyed by (seed, site kind, site key,
// partition, attempt) — splitmix64 over the mixed key, matching the grace
// join's use of the same finalizer for decorrelated sub-partitioning.
func (in *Injector) draw(kind string, key uint64, part, attempt int) float64 {
	h := in.seed ^ fnv64(kind)
	h = splitmix64(h ^ key)
	h = splitmix64(h ^ (uint64(part)+1)*0x9e3779b97f4a7c15)
	h = splitmix64(h ^ (uint64(attempt)+1)*0xbf58476d1ce4e5b9)
	return float64(h>>11) / (1 << 53)
}

// splitmix64 is the splitmix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// fnv64 is FNV-1a over s (site names and spill labels).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
