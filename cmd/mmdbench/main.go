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
	"strings"
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
	tables, err := experiments.All()
	if err != nil {
		return err
	}
	printed := 0
	for _, t := range tables {
		if only != "" && !strings.EqualFold(t.ID, only) {
			continue
		}
		fmt.Println(t.Markdown())
		printed++
	}
	if only != "" && printed == 0 {
		return fmt.Errorf("no experiment named %q", only)
	}
	fmt.Printf("---\n%d experiments in %v\n", printed, time.Since(start).Round(time.Millisecond))
	return nil
}
