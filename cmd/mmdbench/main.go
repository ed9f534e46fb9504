// Command mmdbench runs the experiment suite (E1-E17 plus the
// ablations A1-A3, indexed in internal/experiments) and prints each
// experiment's table as Markdown.
//
// Usage:
//
//	mmdbench            # run every experiment
//	mmdbench -only E5   # run one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (E1..E17, A1..A3)")
	flag.Parse()
	if err := run(*only); err != nil {
		fmt.Fprintln(os.Stderr, "mmdbench:", err)
		os.Exit(1)
	}
}

func run(only string) error {
	start := time.Now()
	var tables []*experiments.Table
	var err error
	if only == "" {
		tables, err = experiments.All()
	} else {
		var t *experiments.Table
		t, err = experiments.Run(only)
		tables = []*experiments.Table{t}
	}
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Println(t.Markdown())
	}
	fmt.Printf("---\n%d experiments in %v\n", len(tables), time.Since(start).Round(time.Millisecond))
	return nil
}
