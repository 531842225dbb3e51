// Command catlint runs cataero's domain-specific static analyzers:
//
//	hotpath    //cataero:hotpath functions and their callees must not allocate
//	ctxloop    solver march loops must poll context cancellation
//	physconst  physical-constant literals belong in the property packages
//
// Usage:
//
//	catlint [-analyzers hotpath,ctxloop,...] [-list] [packages]
//
// Packages default to ./... . Exit status is 0 when clean, 1 when findings
// were reported, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cataero/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("catlint", flag.ContinueOnError)
	names := fs.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: catlint [-analyzers a,b] [-list] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	var sel []string
	if *names != "" {
		sel = strings.Split(*names, ",")
	}
	analyzers, err := lint.ByName(sel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catlint:", err)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "catlint:", err)
		return 2
	}
	prog, err := lint.Load(wd, fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "catlint:", err)
		return 2
	}
	n := 0
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			fmt.Println(d)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "catlint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
