// Command lasql runs extended-SQL scripts against a fresh in-process engine:
//
//	lasql script.sql            run a script file
//	echo "SELECT 1+2" | lasql   run statements from stdin
//	lasql -i                    interactive prompt (lines run once they hold
//	                            a ';' outside strings and comments)
//	lasql -serve :4321          long-lived server: concurrent sessions over a
//	                            length-prefixed TCP protocol
//	lasql -client :4321         run a script (or -i prompt) against a server
//
// The engine supports the paper's VECTOR/MATRIX/LABELED_SCALAR types, the
// linear-algebra built-ins, and EXPLAIN.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"relalg/internal/core"
	"relalg/internal/csvio"
	"relalg/internal/serve"
	"relalg/internal/sqlparse"
)

// assignFlags collects repeatable table=path flags.
type assignFlags []string

func (a *assignFlags) String() string { return strings.Join(*a, ",") }
func (a *assignFlags) Set(s string) error {
	if !strings.Contains(s, "=") {
		return fmt.Errorf("want table=path, got %q", s)
	}
	*a = append(*a, s)
	return nil
}

func main() { os.Exit(run()) }

// run is main returning its exit code, so deferred closes run before exit.
func run() int {
	interactive := flag.Bool("i", false, "interactive mode")
	nodes := flag.Int("nodes", 10, "simulated cluster nodes")
	perNode := flag.Int("partitions", 2, "partitions per node")
	initScript := flag.String("init", "", "DDL script run before -load (e.g. CREATE TABLE statements)")
	serveAddr := flag.String("serve", "", "serve the engine on this address (e.g. :4321) after -init/-load")
	clientAddr := flag.String("client", "", "run against a lasql server at this address instead of in-process")
	maxConc := flag.Int("max-concurrent", 4, "with -serve: statements executing at once; others wait for admission")
	memPool := flag.Int64("mem-pool", 0, "with -serve: shared spill memory pool in bytes (0 inherits config, <0 unlimited)")
	dataDir := flag.String("data", "", "persistent data directory: tables live in paged files and survive restarts (empty: in-memory)")
	poolBytes := flag.Int64("pool-bytes", 0, "with -data: buffer-pool budget in bytes (0: storage default)")
	pageBytes := flag.Int("page-bytes", 0, "with -data: page slot size for a fresh directory (0: storage default; an existing directory's manifest wins)")
	var loads, dumps assignFlags
	flag.Var(&loads, "load", "load CSV (with header) into a table after -init, before the script: table=path (repeatable)")
	flag.Var(&dumps, "dump", "dump a table to CSV after the script: table=path (repeatable)")
	flag.Parse()
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "lasql: %v\n", err)
		return 1
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 && *serveAddr == "" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		defer func() { _ = f.Close() }()
		in = f
	}

	if *clientAddr != "" {
		if *serveAddr != "" || *initScript != "" || len(loads) > 0 || len(dumps) > 0 {
			return fail(fmt.Errorf("-client cannot be combined with -serve/-init/-load/-dump (those run in the server process)"))
		}
		c, err := serve.Dial(*clientAddr)
		if err != nil {
			return fail(err)
		}
		defer func() { _ = c.Close() }()
		return session(in, os.Stdout, os.Stderr, *interactive, clientRunner(c))
	}

	cfg := core.DefaultConfig()
	cfg.Cluster.Nodes = *nodes
	cfg.Cluster.PartitionsPerNode = *perNode
	cfg.DataDir = *dataDir
	cfg.BufferPoolBytes = *poolBytes
	cfg.PageBytes = *pageBytes
	db, err := core.OpenData(cfg)
	if err != nil {
		// Fail fast with the storage layer's diagnosis: unwritable directory,
		// foreign lock, or format/page-size mismatch.
		return fail(err)
	}
	defer func() { _ = db.Close() }()

	if *initScript != "" {
		src, err := os.ReadFile(*initScript)
		if err != nil {
			return fail(err)
		}
		if _, err := db.RunScript(string(src)); err != nil {
			return fail(fmt.Errorf("init: %w", err))
		}
	}
	if err := loadCSV(db, loads); err != nil {
		return fail(err)
	}

	code := 0
	if *serveAddr != "" {
		if err := runServer(db, *serveAddr, *maxConc, *memPool); err != nil {
			return fail(err)
		}
	} else {
		code = session(in, os.Stdout, os.Stderr, *interactive, localRunner(db))
		if code != 0 && !*interactive {
			return code // a failed script dumps nothing
		}
	}
	if err := dumpCSV(db, dumps); err != nil {
		return fail(err)
	}
	return code
}

// loadCSV loads each table=path CSV file (with header) into its table.
func loadCSV(db *core.Database, specs []string) error {
	for _, spec := range specs {
		table, path, _ := strings.Cut(spec, "=")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		n, err := csvio.Load(db, table, f, true)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("loading %s: %w", spec, err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d rows into %s\n", n, table)
	}
	return nil
}

// dumpCSV writes each table=path table to its CSV file.
func dumpCSV(db *core.Database, specs []string) error {
	for _, spec := range specs {
		table, path, _ := strings.Cut(spec, "=")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = csvio.DumpTable(db, table, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("dumping %s: %w", spec, err)
		}
	}
	return nil
}

// runServer serves db on addr until SIGINT/SIGTERM, then shuts down
// gracefully: in-flight statements finish their responses before sessions
// close.
func runServer(db *core.Database, addr string, maxConc int, memPool int64) error {
	srv := serve.New(db, serve.Config{MaxConcurrent: maxConc, MemoryPoolBytes: memPool})
	lisAddr, err := srv.Listen(addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lasql: serving on %s (max-concurrent=%d)\n", lisAddr, maxConc)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "lasql: %v, shutting down\n", sig)
		if err := srv.Shutdown(); err != nil {
			return err
		}
		if err := <-done; err != nil {
			return err
		}
	case err := <-done:
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "lasql: served %d queries\n", srv.Stats().QueriesServed)
	return nil
}

// runner runs one statement and returns its reply: db.RunParsed in-process,
// Client.Do with -client.
type runner func(p sqlparse.Piece) (*serve.Reply, error)

// localRunner runs statements in-process and renders each result as the
// server would.
func localRunner(db *core.Database) runner {
	return func(p sqlparse.Piece) (*serve.Reply, error) {
		if p.Stmt == nil {
			return nil, fmt.Errorf("%s needs -client", p.Text)
		}
		res, err := db.RunParsed(p.Stmt, core.Resources{})
		if err != nil {
			return nil, err
		}
		if res == nil {
			return &serve.Reply{Done: "ok"}, nil
		}
		schema := make([]string, len(res.Schema))
		for i, f := range res.Schema {
			schema[i] = f.Name + "\t" + f.T.String()
		}
		return &serve.Reply{Schema: schema, Rows: res.Rows, Stats: res.Stats.String(),
			Done: fmt.Sprintf("%d rows", len(res.Rows))}, nil
	}
}

// clientRunner sends each statement's text to a server.
func clientRunner(c *serve.Client) runner {
	return func(p sqlparse.Piece) (*serve.Reply, error) {
		reply, err := c.Do(p.Text)
		if err != nil {
			return nil, fmt.Errorf("transport: %w", err)
		}
		return reply, reply.Err()
	}
}

// session runs the statements read from in with run, printing each reply to
// out and each error to errOut, and returns the exit code: 1 if anything
// failed. A script is parsed whole before anything runs and stops at its
// first failing statement. With interactive, a prompt collects lines until
// they hold a ';' token, runs them as one script, and goes on after errors;
// a `\stats` line asks the server for its counters.
func session(in io.Reader, out, errOut io.Writer, interactive bool, run runner) int {
	code := 0
	exec := func(pieces []sqlparse.Piece, err error) {
		for i := 0; err == nil && i < len(pieces); i++ {
			var reply *serve.Reply
			if reply, err = run(pieces[i]); err == nil {
				printReply(out, reply)
			}
		}
		if err != nil {
			fmt.Fprintf(errOut, "error: %v\n", err)
			code = 1
		}
	}
	if !interactive {
		if src, err := io.ReadAll(in); err != nil {
			exec(nil, err)
		} else {
			exec(sqlparse.Split(string(src)))
		}
		return code
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := "lasql> "
	for fmt.Fprint(out, prompt); sc.Scan(); fmt.Fprint(out, prompt) {
		line := sc.Text()
		if strings.TrimSpace(line) == `\stats` {
			exec([]sqlparse.Piece{{Text: `\stats`}}, nil)
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if done, err := sqlparse.Terminated(buf.String()); err == nil && !done {
			prompt = "   ..> "
			continue
		}
		exec(sqlparse.Split(buf.String()))
		buf.Reset()
		prompt = "lasql> "
	}
	exec(nil, sc.Err())
	return code
}

// printReply prints a result set as a tab-separated table closed by its
// "(N rows; stats)" line, a statement without one as its done text ("ok"),
// and a stats reply as its counters.
func printReply(w io.Writer, r *serve.Reply) {
	if r.Stats != "" && len(r.Schema) == 0 {
		fmt.Fprintln(w, r.Stats)
		return
	}
	if len(r.Schema) == 0 {
		fmt.Fprintf(w, "%s\n\n", r.Done)
		return
	}
	names := make([]string, len(r.Schema))
	for i, line := range r.Schema {
		names[i], _, _ = strings.Cut(line, "\t")
	}
	fmt.Fprintln(w, strings.Join(names, "\t"))
	for _, row := range r.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		fmt.Fprintln(w, strings.Join(parts, "\t"))
	}
	fmt.Fprintf(w, "(%s; %s)\n\n", r.Done, strings.ReplaceAll(r.Stats, "\n", " "))
}
