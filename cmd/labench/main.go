// Command labench regenerates the paper's tables and figures:
//
//	labench -fig 1            Figure 1 (Gram matrix) at quick scale
//	labench -fig 2 -scale paper
//	labench -fig all          everything, including the Figure 4 breakdown
//	labench -fig 5            the §4.1 optimizer plan-choice demonstration
//
// The -scale paper mode uses the paper's dimensionalities (10/100/1000) with
// row counts scaled to a single machine; see EXPERIMENTS.md for the scaling
// argument.
//
// The kernel-layer suite is separate from the figures:
//
//	labench -kernels                          print the suite, write BENCH_kernels.json
//	labench -kernels -smoke -out ""           seconds-long smoke run, no file
//
// The out-of-core sweep runs one join+aggregate query at descending memory
// budgets and verifies every budgeted run against the unlimited baseline:
//
//	labench -spill                            full sweep (unlimited → 16KiB)
//	labench -spill -smoke                     seconds-long smoke sweep
//
// The storage sweep runs a scan+aggregate over a persistent paged table at
// descending buffer-pool budgets, reopening each data directory mid-sweep,
// and hard-fails on result divergence, pool overrun, or restart mismatch.
// It writes BENCH_storage.json:
//
//	labench -storage                          full sweep
//	labench -storage -smoke                   seconds-long smoke sweep
//
// The fault sweep runs the same query under deterministic injected faults
// (crashes, shuffle corruption, spill write failures, stragglers) at several
// injector seeds and hard-fails unless every transient-only run reproduces
// the fault-free baseline row-for-row:
//
//	labench -faults                           full sweep, 3 seeds x 2 legs
//	labench -faults -smoke                    seconds-long smoke sweep
//
// The optimizer sweep compares each LA query with and without the algebraic
// rewrite layer, hard-failing on result divergence, on queries where no
// rewrite fired, and (in full mode) on speedups below the floor; it also
// verifies adaptive re-optimization fires under a seeded mis-estimate. It
// writes BENCH_opt.json:
//
//	labench -opt                              full sweep
//	labench -opt -smoke                       seconds-long smoke sweep
package main

import (
	"flag"
	"fmt"
	"os"

	"relalg/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 1-6 or all (6 = load-balance discussion)")
	scale := flag.String("scale", "quick", "workload scale: quick or paper")
	gramN := flag.Int("gram-n", 0, "override row count for Gram/regression")
	distN := flag.Int("dist-n", 0, "override row count for distance")
	seed := flag.Int64("seed", 0, "override data seed")
	kernels := flag.Bool("kernels", false, "run the kernel benchmark suite instead of the figures")
	spillSweep := flag.Bool("spill", false, "run the out-of-core spill sweep instead of the figures")
	faultSweep := flag.Bool("faults", false, "run the deterministic fault-injection sweep instead of the figures")
	storageSweep := flag.Bool("storage", false, "run the persistent-storage buffer-pool sweep instead of the figures")
	optSweep := flag.Bool("opt", false, "run the optimizer rewrite + adaptive re-optimization sweep instead of the figures")
	smoke := flag.Bool("smoke", false, "with -kernels, -spill, -faults, -storage or -opt: tiny sizes for a seconds-long smoke run")
	out := flag.String("out", "BENCH_kernels.json", "with -kernels: JSON output path (empty = don't write)")
	flag.Parse()

	if *optSweep {
		ocfg := bench.DefaultOptConfig()
		if *smoke {
			ocfg = bench.SmokeOptConfig()
		}
		if *seed != 0 {
			ocfg.Seed = *seed
		}
		rep, err := bench.RunOptSweep(ocfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: opt: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		path := *out
		if path == "BENCH_kernels.json" {
			path = "BENCH_opt.json"
		}
		if path != "" {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "labench: opt: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "labench: opt: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	if *storageSweep {
		scfg := bench.DefaultStorageConfig()
		if *smoke {
			scfg = bench.SmokeStorageConfig()
		}
		if *seed != 0 {
			scfg.Seed = *seed
		}
		rep, err := bench.RunStorageSweep(scfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: storage: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		path := *out
		if path == "BENCH_kernels.json" {
			path = "BENCH_storage.json"
		}
		if path != "" {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "labench: storage: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "labench: storage: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		return
	}

	if *faultSweep {
		fcfg := bench.DefaultFaultConfig()
		if *smoke {
			fcfg = bench.SmokeFaultConfig()
		}
		if *seed != 0 {
			fcfg.Seed = *seed
		}
		rep, err := bench.RunFaultSweep(fcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: faults: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		return
	}

	if *spillSweep {
		scfg := bench.DefaultSpillConfig()
		if *smoke {
			scfg = bench.SmokeSpillConfig()
		}
		if *seed != 0 {
			scfg.Seed = *seed
		}
		rep, err := bench.RunSpillSweep(scfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: spill: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		return
	}

	if *kernels {
		kcfg := bench.DefaultKernelConfig()
		if *smoke {
			kcfg = bench.SmokeKernelConfig()
		}
		if *seed != 0 {
			kcfg.Seed = *seed
		}
		rep, err := bench.RunKernels(kcfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: kernels: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		if *out != "" {
			data, err := rep.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "labench: kernels: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "labench: kernels: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		return
	}

	var cfg bench.Config
	switch *scale {
	case "quick":
		cfg = bench.QuickConfig()
	case "paper":
		cfg = bench.PaperConfig()
	default:
		fmt.Fprintf(os.Stderr, "labench: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}
	if *gramN > 0 {
		cfg.GramN = *gramN
	}
	if *distN > 0 {
		cfg.DistN = *distN
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}

	run := func(name string, f func() (string, error)) {
		out, err := f()
		if err != nil {
			fmt.Fprintf(os.Stderr, "labench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
	}

	figures := map[string]func() (string, error){
		"1": func() (string, error) {
			t, err := bench.RunGram(cfg)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		},
		"2": func() (string, error) {
			t, err := bench.RunRegression(cfg)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		},
		"3": func() (string, error) {
			t, err := bench.RunDistance(cfg)
			if err != nil {
				return "", err
			}
			return t.Format(), nil
		},
		"4": func() (string, error) {
			b, err := bench.RunBreakdown(cfg)
			if err != nil {
				return "", err
			}
			return b.Format(), nil
		},
		"5": bench.OptimizerDemo,
		"6": func() (string, error) {
			// The paper's own setting: 100 blocked matrices over 80 cores.
			return bench.LoadBalanceDemo(100, 80), nil
		},
	}

	if *fig == "all" {
		for _, k := range []string{"1", "2", "3", "4", "5", "6"} {
			run("figure "+k, figures[k])
		}
		return
	}
	f, ok := figures[*fig]
	if !ok {
		fmt.Fprintf(os.Stderr, "labench: unknown figure %q\n", *fig)
		os.Exit(2)
	}
	run("figure "+*fig, f)
}
