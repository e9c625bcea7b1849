package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"relalg/internal/core"
)

// Banner is the hello-frame payload; clients may use it to sanity-check what
// they dialed.
const Banner = "relalg-serve 1"

// planCacheSize is the maximum number of cached plans.
const planCacheSize = 128

// Config are the server's resource-arbitration knobs. The zero value gets
// sensible defaults from the database it serves.
type Config struct {
	// MaxConcurrent bounds statements executing at once; further statements
	// queue in the admission controller. Default 4.
	MaxConcurrent int
	// MemoryPoolBytes is the server-wide spill-memory pool. Each admitted
	// statement leases a fixed 1/MaxConcurrent share, so the leases can
	// never sum past the pool no matter what runs concurrently. 0 inherits
	// the database's own per-query budget (cluster.Config.MemoryBudgetBytes)
	// for every statement — the pre-server behaviour, unbounded across
	// queries; negative means no budget anywhere (never spill).
	MemoryPoolBytes int64
}

// Server executes statements from many TCP sessions against one shared
// database.
type Server struct {
	db  *core.Database
	cfg Config
	// workers is the total kernel-goroutine budget arbitrated across
	// concurrent statements, the database's cluster.Config.KernelWorkers():
	// each admitted statement is granted max(1, workers/active).
	workers int

	adm   *admission
	cache *planCache
	stats serverStats

	mu       sync.Mutex
	lis      net.Listener
	sessions map[*session]struct{}
	wg       sync.WaitGroup
	closing  atomic.Bool
}

// New builds a server around db, applying Config defaults.
func New(db *core.Database, cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	return &Server{
		db:       db,
		cfg:      cfg,
		workers:  db.Cluster().Config().KernelWorkers(),
		adm:      newAdmission(cfg.MaxConcurrent),
		cache:    newPlanCache(planCacheSize),
		sessions: map[*session]struct{}{},
	}
}

// Listen starts listening on addr (e.g. ":7432" or "127.0.0.1:0") without
// accepting yet, so callers can learn the bound address before Serve blocks.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	return lis.Addr(), nil
}

// Serve accepts connections until Shutdown; it returns nil on a clean
// shutdown. One goroutine per connection is the only fan-out the serving
// layer itself adds — all query parallelism stays inside the engine's own
// bounded runners.
func (s *Server) Serve() error {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return errors.New("serve: Serve before Listen")
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		sess := &session{srv: s, conn: conn}
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		s.stats.sessionsOpened.Add(1)
		go sess.run()
	}
}

// Shutdown stops accepting, lets every in-flight statement finish, then
// closes all connections and waits for the session goroutines to exit.
func (s *Server) Shutdown() error {
	s.closing.Store(true)
	s.mu.Lock()
	if s.lis != nil {
		_ = s.lis.Close()
	}
	for sess := range s.sessions {
		// Unblock sessions parked in ReadFrame; a session mid-statement
		// finishes and writes its response before noticing.
		_ = sess.conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

// removeSession drops a finished session from the registry.
func (s *Server) removeSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess)
	s.mu.Unlock()
	s.stats.sessionsClosed.Add(1)
	s.wg.Done()
}

// lease computes the resource lease for a statement admitted as one of
// `active` concurrently-executing statements.
func (s *Server) lease(active int) core.Resources {
	var r core.Resources
	switch {
	case s.cfg.MemoryPoolBytes > 0:
		// Fixed per-slot share: MaxConcurrent × share ≤ pool, always.
		share := s.cfg.MemoryPoolBytes / int64(s.cfg.MaxConcurrent)
		if share < 1 {
			share = 1
		}
		r.MemoryBudgetBytes = share
	case s.cfg.MemoryPoolBytes < 0:
		r.MemoryBudgetBytes = -1 // explicitly unlimited
	}
	if w := s.workers / active; w > 1 {
		r.KernelWorkers = w
	} else {
		r.KernelWorkers = 1
	}
	return r
}

// Stats returns a snapshot of the server-wide counters.
func (s *Server) Stats() StatsSnapshot {
	return StatsSnapshot{
		SessionsOpened:  s.stats.sessionsOpened.Load(),
		SessionsClosed:  s.stats.sessionsClosed.Load(),
		QueriesServed:   s.stats.queriesServed.Load(),
		StatementErrors: s.stats.statementErrors.Load(),
		CacheHits:       s.cache.hits.Load(),
		CacheMisses:     s.cache.misses.Load(),
		AdmissionWaits:  s.adm.waits.Load(),
		ActiveQueries:   s.adm.active.Load(),
		PeakConcurrent:  s.adm.peak.Load(),
	}
}

// String implements fmt.Stringer for error contexts.
func (s *Server) String() string {
	return fmt.Sprintf("serve.Server(max=%d pool=%d workers=%d)",
		s.cfg.MaxConcurrent, s.cfg.MemoryPoolBytes, s.workers)
}
