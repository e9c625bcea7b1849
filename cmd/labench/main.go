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
	flag.Parse()

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
