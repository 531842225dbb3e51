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
// unknown -flux name fails fast — before any solve starts — with the
// registered kernel list.
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

// checkRegistered fails fast on a name missing from a registry list,
// printing what is registered, so a bad flag aborts before any solve starts
// instead of surfacing mid-batch at solve time. The empty name (defer to
// the default) always passes. Returns false when the name is bad.
func checkRegistered(kind, name string, registered []string) bool {
	if name == "" {
		return true
	}
	for _, r := range registered {
		if r == name {
			return true
		}
	}
	fmt.Fprintf(os.Stderr, "catsim: unknown %s %q; registered:\n", kind, name)
	for _, r := range registered {
		fmt.Fprintf(os.Stderr, "  %s\n", r)
	}
	return false
}

// checkFlux validates a flux-kernel name against the registry.
func checkFlux(name string) bool {
	return checkRegistered("flux kernel", name, cataero.FluxKernels())
}

// checkTimeStepping validates a time-integrator name against the registry.
func checkTimeStepping(name string) bool {
	return checkRegistered("time stepping", name, cataero.TimeSteppings())
}

// checkImplicitSweep validates an implicit sweep-pattern name against the
// valid list.
func checkImplicitSweep(name string) bool {
	return checkRegistered("implicit sweep", name, cataero.ImplicitSweeps())
}

// checkLimiter validates a MUSCL slope-limiter name against the registry.
func checkLimiter(name string) bool {
	return checkRegistered("limiter", name, cataero.Limiters())
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
