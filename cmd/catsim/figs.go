package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"strings"

	"cataero"
)

// figsCmd regenerates the paper's figures: `catsim figs -fig 2,4,9`. Bare
// top-level flags route here too, so pre-subcommand invocations
// (`catsim -fig 7`) keep working.
func figsCmd(args []string) int {
	fs := flag.NewFlagSet("catsim figs", flag.ExitOnError)
	fig := fs.String("fig", "all", "figures to regenerate: comma-separated 1-9, or 'all'")
	quality := fs.Int("q", 1, "grid quality (1 = default, 2 = finer)")
	workers := fs.Int("workers", 0, "concurrent solve bound (0 = GOMAXPROCS)")
	fluxName := fs.String("flux", "", "finite-volume flux kernel (see 'catsim kernels'; empty = solver default)")
	timestep := fs.String("timestep", "", "finite-volume time integrator (explicit, implicit; empty = solver default)")
	limiter := fs.String("limiter", "", "MUSCL slope limiter (minmod, vanalbada; empty = solver default)")
	gridSeq := fs.Bool("gridseq", false, "grid-sequence the NS and shock-shape solves (coarse first, then fine)")
	levels := fs.Int("levels", 0, "multilevel grid-level count for NS/shock solves (2 = two-level, 3+ = deeper; implies -gridseq)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	fs.Parse(args)
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "catsim figs: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if !checkFlux(*fluxName) || !checkTimeStepping(*timestep) || !checkLimiter(*limiter) {
		return 2
	}
	if *levels < 0 {
		fmt.Fprintln(os.Stderr, "catsim figs: -levels must be non-negative")
		return 2
	}

	// Profile around the figure runs; runFigs returns instead of exiting so
	// the profile is flushed even when a figure fails.
	stopProfile := func() {}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	code := runFigs(*fig, *quality, *workers, *fluxName, *timestep, *limiter, *levels, *gridSeq)
	stopProfile()
	return code
}

// runFigs executes the requested figures and returns the process exit code.
func runFigs(fig string, quality, workers int, fluxName, timestep, limiter string, levels int, gridSeq bool) int {
	var opts []cataero.Option
	if workers > 0 {
		opts = append(opts, cataero.WithWorkers(workers))
	}
	if fluxName != "" {
		opts = append(opts, cataero.WithFlux(fluxName))
	}
	if timestep != "" {
		opts = append(opts, cataero.WithTimeStepping(timestep))
	}
	if limiter != "" {
		opts = append(opts, cataero.WithLimiter(limiter))
	}
	if levels > 0 {
		opts = append(opts, cataero.WithLevels(levels))
	}
	if gridSeq {
		opts = append(opts, cataero.WithGridSequencing(true))
	}
	s := cataero.NewSession(opts...)
	ctx := context.Background()

	runners := map[string]func() error{
		"1": func() error { return fig1() },
		"2": func() error { return fig2(ctx, s) },
		"3": func() error { return fig3() },
		"4": func() error { return fig4(ctx, s, cataero.Quality(quality)) },
		"5": func() error { return fig5() },
		"6": func() error { return fig6(ctx, s) },
		"7": func() error { return fig7() },
		"8": func() error { return fig8() },
		"9": func() error { return fig9(ctx, s, cataero.Quality(quality)) },
	}

	var keys []string
	if fig == "all" {
		keys = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9"}
	} else {
		for _, k := range strings.Split(fig, ",") {
			k = strings.TrimSpace(k)
			if k == "" {
				continue
			}
			if _, ok := runners[k]; !ok {
				fmt.Fprintf(os.Stderr, "unknown figure %q (want 1-9, a comma-separated list, or 'all')\n", k)
				return 2
			}
			keys = append(keys, k)
		}
		if len(keys) == 0 {
			fmt.Fprintf(os.Stderr, "no figures requested (want 1-9, a comma-separated list, or 'all')\n")
			return 2
		}
	}

	for _, k := range keys {
		if len(keys) > 1 {
			fmt.Printf("==== Figure %s ====\n", k)
		}
		if err := runners[k](); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", k, err)
			return 1
		}
		if len(keys) > 1 {
			fmt.Println()
		}
	}
	return 0
}

func fig1() error {
	r := cataero.Fig1FlightDomain()
	fmt.Println("Flight domain (Re vs M) and facility envelopes")
	for _, v := range r.Vehicles {
		fmt.Printf("%s:\n", v.Label)
		for i := range v.X {
			fmt.Printf("  M=%6.2f  Re=%10.3e\n", v.X[i], v.Y[i])
		}
	}
	fmt.Println("facilities:")
	for _, f := range r.Facilities {
		fmt.Printf("  %-32s M %4.1f-%4.1f  Re %.1e-%.1e\n",
			f.Name, f.MachMin, f.MachMax, f.ReynoldsMin, f.ReynoldsMax)
	}
	fmt.Printf("AOTV simulation gap: %.0f%% of trajectory uncovered\n", 100*r.GapFraction)
	return nil
}

func fig2(ctx context.Context, s *cataero.Session) error {
	r, err := s.Fig2TitanHeatingPulse(ctx)
	if err != nil {
		return err
	}
	fmt.Println("Titan probe heating pulses (W/cm^2)")
	fmt.Println("   t [s]     q_conv      q_rad")
	for i := range r.Time {
		fmt.Printf("  %6.1f   %8.2f   %8.2f\n", r.Time[i], r.QConv[i], r.QRad[i])
	}
	fmt.Printf("peaks: conv %.1f at %.0fs, rad %.1f at %.0fs\n",
		r.PeakConv, r.TPeakConv, r.PeakRad, r.TPeakRad)
	return nil
}

func fig3() error {
	r, err := cataero.Fig3TitanSpeciesProfile()
	if err != nil {
		return err
	}
	fmt.Printf("Titan stagnation-line species (delta = %.2f cm)\n", r.Delta*100)
	names := []string{"N2", "H2", "H", "C2H2", "HCN", "CN", "C2", "N"}
	fmt.Printf("%8s", "y/delta")
	for _, n := range names {
		fmt.Printf(" %9s", n)
	}
	fmt.Println()
	for i := range r.YOverDelta {
		fmt.Printf("%8.3f", r.YOverDelta[i])
		for _, n := range names {
			fmt.Printf(" %9.2e", r.Species[n][i])
		}
		fmt.Println()
	}
	return nil
}

func fig4(ctx context.Context, s *cataero.Session, q cataero.Quality) error {
	r, err := s.Fig4OrbiterShockShape(ctx, q)
	if err != nil {
		return err
	}
	fmt.Println("Orbiter pitch-plane bow shock (x,y of locus, m)")
	fmt.Println("      ideal x      ideal y   reacting x   reacting y")
	for i := range r.IdealX {
		fmt.Printf("  %10.3f  %10.3f  %10.3f  %10.3f\n",
			r.IdealX[i], r.IdealY[i], r.ReactingX[i], r.ReactingY[i])
	}
	fmt.Printf("standoff: ideal %.3f m, reacting %.3f m (ratio %.2f)\n",
		r.StandoffIdeal, r.StandoffReacting, r.StandoffReacting/r.StandoffIdeal)
	return nil
}

func fig5() error {
	secs := cataero.Fig5OrbiterGeometry(20)
	fmt.Println("Orbiter geometry sections")
	fmt.Println("    x [m]   half-width   windward z")
	for _, sec := range secs {
		fmt.Printf("  %7.2f   %10.2f   %10.2f\n", sec.X, sec.HalfWidth, sec.WindwardZ)
	}
	return nil
}

func fig6(ctx context.Context, s *cataero.Session) error {
	r, err := s.Fig6WindwardHeating(ctx)
	if err != nil {
		return err
	}
	fmt.Println("Windward centerline heating (W/cm^2)")
	fmt.Println("     x/L      q_eq   q_ideal(1.2)")
	for i := range r.XOverL {
		fmt.Printf("  %6.3f  %8.2f  %12.2f\n", r.XOverL[i], r.QEquilibrium[i], r.QIdeal[i])
	}
	fmt.Println("flight data (synthetic, finite catalysis):")
	for i := range r.FlightX {
		fmt.Printf("  x/L=%.3f  q=%.2f\n", r.FlightX[i], r.FlightQ[i])
	}
	fmt.Printf("catalysis fraction: %.2f\n", r.CatalysisFraction)
	return nil
}

func fig7() error {
	r, err := cataero.Fig7ShockRelaxation()
	if err != nil {
		return err
	}
	fmt.Println("Two-temperature relaxation behind a 10 km/s shock (0.1 torr)")
	fmt.Println("   x [cm]      T [K]     Tv [K]    x(N2)     x(N)      x(e-)")
	for i := range r.X {
		fmt.Printf("  %8.4f  %9.0f  %9.0f  %7.4f  %7.4f  %9.2e\n",
			r.X[i]*100, r.T[i], r.Tv[i], r.XN2[i], r.XN[i], r.XE[i])
	}
	fmt.Printf("frozen T %.0f K -> equilibrium %.0f K\n", r.TFrozen, r.TEq)
	return nil
}

func fig8() error {
	r, err := cataero.Fig8NoneqSpectra()
	if err != nil {
		return err
	}
	fmt.Println("Nonequilibrium air spectrum (wall-directed intensity)")
	fmt.Println("  lambda [nm]     computed     'measured'")
	for i := 0; i < len(r.LambdaNm); i += 8 {
		fmt.Printf("  %10.1f  %12.4g  %12.4g\n", r.LambdaNm[i], r.Computed[i], r.Measured[i])
	}
	return nil
}

func fig9(ctx context.Context, s *cataero.Session, q cataero.Quality) error {
	r, err := s.Fig9HemisphereNS(ctx, q)
	if err != nil {
		return err
	}
	fmt.Println("Hemisphere NS: N2 mole-fraction contours (Mach 20, 20 km)")
	levels := make([]float64, 0, len(r.ContourX))
	for lv := range r.ContourX {
		levels = append(levels, lv)
	}
	sort.Float64s(levels)
	for _, lv := range levels {
		fmt.Printf("  x(N2)=%.2f at stagnation-line x = %8.4f m\n", lv, r.ContourX[lv])
	}
	fmt.Printf("min x(N2) = %.3f; q_stag = %.1f W/cm^2; standoff = %.1f mm\n",
		r.MinXN2, r.QStag/1e4, r.Standoff*1000)
	return nil
}
