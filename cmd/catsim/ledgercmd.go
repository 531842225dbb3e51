package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cataero/internal/ledger"
)

// ledgerCmd inspects and maintains a run ledger:
//
//	catsim ledger ls  -ledger DIR             list entries (key, solver, age, cost) and checkpoints
//	catsim ledger get -ledger DIR KEY         print one full entry as JSON
//	catsim ledger gc  -ledger DIR -older 720h remove entries and checkpoints past a cutoff
func ledgerCmd(args []string) int {
	if len(args) == 0 {
		ledgerUsage(os.Stderr)
		return 2
	}
	sub, args := args[0], args[1:]
	switch sub {
	case "ls":
		return ledgerLs(args)
	case "get":
		return ledgerGet(args)
	case "gc":
		return ledgerGC(args)
	case "help":
		ledgerUsage(os.Stdout)
		return 0
	}
	fmt.Fprintf(os.Stderr, "catsim ledger: unknown subcommand %q\n\n", sub)
	ledgerUsage(os.Stderr)
	return 2
}

func ledgerUsage(w *os.File) {
	fmt.Fprintf(w, `usage: catsim ledger <ls|get|gc> -ledger DIR [args]

subcommands:
  ls   list stored entries (key, solver, age, original solve cost), then
       the checkpoints of unfinished runs (key, step, age)
  get  print one entry (full JSON) by key; KEY may be a unique prefix
  gc   remove entries and checkpoints created before -older ago, plus
       damaged ones and abandoned temp files; -max-bytes then evicts
       least-recently-used files (checkpoints before results) until the
       ledger fits the budget; -dry reports what both would remove
`)
}

// openLedgerFlag parses common flags and opens the store.
func openLedgerFlag(fs *flag.FlagSet, args []string) (*ledger.Ledger, []string, int) {
	dir := fs.String("ledger", "", "run-ledger directory (required)")
	fs.Parse(args)
	if *dir == "" {
		fmt.Fprintf(os.Stderr, "catsim ledger %s: -ledger DIR is required\n", fs.Name())
		return nil, nil, 2
	}
	l, err := ledger.Open(*dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger %s: %v\n", fs.Name(), err)
		return nil, nil, 1
	}
	return l, fs.Args(), 0
}

func ledgerLs(args []string) int {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	l, rest, code := openLedgerFlag(fs, args)
	if code != 0 {
		return code
	}
	if len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "catsim ledger ls: unexpected argument %q\n", rest[0])
		return 2
	}
	if err := listLedger(os.Stdout, l); err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger ls: %v\n", err)
		return 1
	}
	return 0
}

// listLedger prints the stored entries (key, solver, age, original solve
// cost), then the checkpoints of unfinished runs (key, step, age), and a
// summary with both counts.
func listLedger(w io.Writer, l *ledger.Ledger) error {
	entries, err := l.Entries()
	if err != nil {
		return err
	}
	cks, err := l.Checkpoints()
	if err != nil {
		return err
	}
	if len(entries)+len(cks) == 0 {
		fmt.Fprintln(w, "ledger is empty")
		return nil
	}
	age := func(created time.Time) time.Duration { return time.Since(created).Round(time.Minute) }
	if len(entries) > 0 {
		fmt.Fprintf(w, "%-16s  %-8s  %-12s  %s\n", "KEY", "SOLVER", "AGE", "SOLVED IN")
		for _, e := range entries {
			fmt.Fprintf(w, "%-16s  %-8s  %-12s  %.1f ms\n", e.Key[:16], e.Solver, age(e.Created), e.ElapsedMS)
		}
	}
	if len(cks) > 0 {
		fmt.Fprintf(w, "%-16s  %-8s  %s\n", "CHECKPOINT", "STEP", "AGE")
		for _, c := range cks {
			fmt.Fprintf(w, "%-16s  %-8d  %s\n", c.Key[:16], c.Step, age(c.Created))
		}
	}
	fmt.Fprintf(w, "%d entries, %d checkpoints\n", len(entries), len(cks))
	return nil
}

func ledgerGet(args []string) int {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	l, rest, code := openLedgerFlag(fs, args)
	if code != 0 {
		return code
	}
	if len(rest) != 1 {
		fmt.Fprintln(os.Stderr, "usage: catsim ledger get -ledger DIR KEY")
		return 2
	}
	key, err := resolveKey(l, rest[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger get: %v\n", err)
		return 1
	}
	e, err := l.Get(key)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger get: %v\n", err)
		return 1
	}
	if e == nil {
		fmt.Fprintf(os.Stderr, "catsim ledger get: no entry for %s\n", key)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(e); err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger get: %v\n", err)
		return 1
	}
	return 0
}

// resolveKey expands a unique key prefix to the full stored key.
func resolveKey(l *ledger.Ledger, prefix string) (string, error) {
	keys, err := l.Keys()
	if err != nil {
		return "", err
	}
	var matches []string
	for _, k := range keys {
		if k == prefix {
			return k, nil
		}
		if len(prefix) >= 4 && len(prefix) < len(k) && k[:len(prefix)] == prefix {
			matches = append(matches, k)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return prefix, nil // let Get report the miss / invalid key
	}
	return "", fmt.Errorf("prefix %q is ambiguous (%d matches)", prefix, len(matches))
}

func ledgerGC(args []string) int {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	older := fs.Duration("older", 0, "remove entries and checkpoints created more than this long ago (0 = only damaged ones)")
	maxBytes := fs.Int64("max-bytes", 0, "evict least-recently-used files (checkpoints first) until the ledger fits this size (0 = no size budget)")
	dry := fs.Bool("dry", false, "report what would be removed without removing")
	l, rest, code := openLedgerFlag(fs, args)
	if code != 0 {
		return code
	}
	if len(rest) > 0 {
		fmt.Fprintf(os.Stderr, "catsim ledger gc: unexpected argument %q\n", rest[0])
		return 2
	}
	var cutoff time.Time
	if *older > 0 {
		cutoff = time.Now().UTC().Add(-*older)
	}
	entries, checkpoints, err := l.GC(cutoff, *maxBytes, *dry)
	if err != nil {
		fmt.Fprintf(os.Stderr, "catsim ledger gc: %v\n", err)
		return 1
	}
	verb := "removed"
	if *dry {
		verb = "would remove"
	}
	fmt.Printf("%s %d entries and %d checkpoints\n", verb, entries, checkpoints)
	return 0
}
