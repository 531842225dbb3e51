// catsim is the command-line front end of the toolkit:
//
//	catsim figs -fig 7              # print the Fig. 7 relaxation profile
//	catsim figs -fig 2,4,9 -q 2     # a comma-separated list, finer grids
//	catsim -fig all                 # bare flags still mean 'figs' (back-compat)
//	catsim run case.json            # solve a declarative JSON case file
//	catsim run case.json -progress  # ...with a live residual ticker
//	catsim run case.json -ledger d  # ...reusing a content-addressed run store
//	catsim serve -ledger d          # HTTP solve service over the same store
//	catsim ledger ls -ledger d      # inspect the store
//	catsim kernels                  # list the registered flux kernels
//
// Every solver-backed command runs through one cataero.Session, so model
// stacks and EOS tables build once and are shared across the run. An
// unknown -flux, -timestep, -implicitsweep or -limiter name fails fast —
// exit 2, before any solve starts — with fvm.CheckNames' error, which lists
// the valid names.
package main

import (
	"fmt"
	"os"
	"strings"

	"cataero"
)

func main() {
	args := os.Args[1:]
	cmd := "figs"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var code int
	switch cmd {
	case "figs":
		code = figsCmd(args)
	case "run":
		code = runCmd(args)
	case "serve":
		code = serveCmd(args)
	case "ledger":
		code = ledgerCmd(args)
	case "kernels":
		code = kernelsCmd(args)
	case "help":
		usage(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "catsim: unknown command %q\n\n", cmd)
		usage(os.Stderr)
		code = 2
	}
	os.Exit(code)
}

func usage(w *os.File) {
	fmt.Fprintf(w, `usage: catsim <command> [flags]

commands:
  figs     regenerate the paper's figures (default; bare flags imply it)
  run      solve a declarative JSON case file, optionally with live progress
  serve    run the HTTP solve service with a persistent run ledger
  ledger   inspect or garbage-collect a run ledger (ls, get, gc)
  kernels  list the registered finite-volume flux kernels
  help     print this message

run 'catsim <command> -h' for the command's flags.
`)
}

func kernelsCmd(args []string) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "usage: catsim kernels")
		return 2
	}
	for _, k := range cataero.FluxKernels() {
		fmt.Println(k)
	}
	return 0
}
