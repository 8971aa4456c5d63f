// Command respdump regenerates Figure 6 of the paper: the closed-loop
// system-output responses of all three applications under the
// cache-oblivious round-robin schedule and a cache-aware schedule, written
// as CSV for plotting.
//
// Usage:
//
//	respdump [-schedules "1,1,1;2,2,2"] [-budget tiny|quick|paper|deep] [-o fig6.csv]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/sched"
)

// errUsage signals a flag-parse failure the FlagSet already reported on
// stdout; main must not print it a second time.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("respdump", flag.ContinueOnError)
	fs.SetOutput(stdout)
	schedules := fs.String("schedules", "1,1,1;2,2,2", "semicolon-separated schedules to plot")
	budget := fs.String("budget", "quick", "design budget: tiny | quick | paper | deep")
	out := fs.String("o", "", "output CSV path (default stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !exp.KnownBudget(*budget) {
		return fmt.Errorf("respdump: unknown budget %q (want tiny | quick | paper | deep)", *budget)
	}

	fw, err := exp.DefaultFramework(exp.Budget(*budget))
	if err != nil {
		return err
	}

	var list []sched.Schedule
	for _, part := range strings.Split(*schedules, ";") {
		s, err := sched.ParseSchedule(part, len(fw.Apps))
		if err != nil {
			return err
		}
		list = append(list, s)
	}

	series, err := exp.Figure6(fw, list...)
	if err != nil {
		return err
	}
	w := io.Writer(stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := exp.WriteFigure6CSV(w, series); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(stdout, "wrote %s (%d series)\n", *out, len(series))
	}
	return nil
}
