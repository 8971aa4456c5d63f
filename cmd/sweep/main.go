// Command sweep drives the concurrent scenario-sweep engine
// (internal/engine): batches of randomized N-app tasksets, drawn from
// random control programs and evaluated across one or more cache platforms,
// are searched for their best schedule over a bounded worker pool, with
// every schedule evaluation deduplicated through the engine's sharded
// memoization cache.
//
// Usage:
//
//	sweep [-n 20] [-apps 3] [-seed 1] [-workers N] [-maxm 6] [-starts 2]
//	      [-tol 0.01] [-objective timing|design] [-budget tiny|quick|paper|deep]
//	      [-platforms 1] [-exhaustive] [-csv]
//	      [-jitter F] [-arrival-seed S] [-arrival-cycles K]
//	      [-l2-lines N] [-l2-ways W] [-l2-hit C] [-l2-exclusive]
//	      [-store DIR] [-store-sync] [-resume]
//	      [-remote URL] [-shards N] [-remote-poll 500ms] [-remote-timeout 10m]
//	      [-cpuprofile sweep.cpu] [-memprofile sweep.mem]
//	sweep -scrub -store DIR [-scrub-repair]
//
// -scrub walks the store like an fsck: every record is classified as ok,
// corrupt, or checksum-mismatched, the segments of finished writers are
// checked for torn tails, and the command exits non-zero if problems are
// found. -scrub-repair additionally rewrites each damaged segment without
// its bad records and torn tail, keeping their bytes under
// DIR/quarantine/ — always safe, records are deterministic and
// recomputable.
//
// With -objective design each schedule evaluation runs the paper's full
// holistic controller design (slow; keep -n small). The default timing
// objective scores schedules from derived timing parameters alone and
// sweeps thousands of scenarios in seconds.
//
// With -store DIR every evaluation outcome and every completed scenario is
// persisted to a log-structured disk store (internal/store); re-running
// the same sweep against a warm store skips re-executing evaluations, and
// -resume additionally skips whole completed scenarios, so an interrupted
// sweep picks up where it was killed. All three paths print bit-identical
// reports.
//
// With -remote URL the sweep runs on a cluster instead: the grid is
// submitted as a job to a served coordinator (internal/fabric), its shards
// (-shards N) are leased to worker processes publishing into the
// coordinator's store, and once the job completes this command assembles
// the results over the coordinator's HTTP store — printing the same report,
// bit for bit, as a local run. This is the one way to split a grid across
// processes: run served -store DIR and its workers on one box to share a
// local directory. -remote owns no local state, so it excludes -store and
// -resume; progress goes to stderr, the report to stdout.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/prof"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/store/httpstore"
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
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stdout)
	n := fs.Int("n", 20, "number of scenarios")
	nApps := fs.Int("apps", 3, "applications per scenario")
	seed := fs.Int64("seed", 1, "base seed; scenario i uses seed+i")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "scenario-level workers (default: all cores; -workers 1 runs serial)")
	maxM := fs.Int("maxm", 6, "burst-length cap")
	starts := fs.Int("starts", 2, "random hybrid starts per scenario")
	tol := fs.Float64("tol", 0.01, "hybrid acceptance tolerance")
	objective := fs.String("objective", "timing", "schedule objective: timing | design")
	budget := fs.String("budget", "quick", "design budget for -objective design: tiny | quick | paper | deep")
	platforms := fs.Int("platforms", 1, "cache-platform variants to cycle through (1-4)")
	exhaustive := fs.Bool("exhaustive", false, "also run the exhaustive baseline per scenario")
	csv := fs.Bool("csv", false, "emit per-scenario results as CSV")
	jitter := fs.Float64("jitter", 0, "sporadic release jitter fraction in [0, 1); 0 keeps the periodic model")
	arrivalSeed := fs.Int64("arrival-seed", 0, "seed of the sporadic jitter draws")
	arrivalCycles := fs.Int("arrival-cycles", 0, "schedule periods a sporadic timeline simulates (0 = default)")
	l2Lines := fs.Int("l2-lines", 0, "L2 cache lines; 0 keeps the single-level platform")
	l2Ways := fs.Int("l2-ways", 0, "L2 associativity (0 = default 4)")
	l2Hit := fs.Int("l2-hit", 0, "L2 hit cycles (0 = default 10)")
	l2Exclusive := fs.Bool("l2-exclusive", false, "analyze the L2 as an exclusive victim cache")
	storeDir := fs.String("store", "", "persist evaluations and scenario checkpoints to this directory")
	storeSync := fs.Bool("store-sync", false, "fsync the store segment after every write")
	scrub := fs.Bool("scrub", false, "fsck the -store directory instead of sweeping; non-zero exit when bad records are found")
	scrubRepair := fs.Bool("scrub-repair", false, "with -scrub: rewrite damaged segments without their bad records and torn tails, keeping those bytes under DIR/quarantine/")
	resume := fs.Bool("resume", false, "skip scenarios already checkpointed in -store")
	remote := fs.String("remote", "", "run the sweep on the cluster coordinated by this served URL")
	shards := fs.Int("shards", 0, "shard count for the -remote job (0 = one shard)")
	remotePoll := fs.Duration("remote-poll", 500*time.Millisecond, "status poll interval for -remote")
	remoteTimeout := fs.Duration("remote-timeout", 10*time.Minute, "give up waiting for the -remote job after this long")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *scrub {
		if *storeDir == "" {
			return fmt.Errorf("sweep: -scrub requires -store")
		}
		st, err := store.Open(*storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		rep, err := st.Scrub(*scrubRepair)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "scrub %s: %s\n", *storeDir, rep)
		if rep.Bad() > 0 && !*scrubRepair {
			// A dirty store and no repair: fail so CI and scripts notice.
			// With repair the problems were handled (quarantined) and a clean
			// exit lets "scrub-repair then rerun" pipelines proceed.
			return fmt.Errorf("sweep: scrub found %d bad record(s)/torn tail(s) in %s (re-run with -scrub-repair to quarantine)",
				rep.Bad(), *storeDir)
		}
		return nil
	}
	if *scrubRepair {
		return fmt.Errorf("sweep: -scrub-repair requires -scrub")
	}
	// A spec reads platforms 0 as the default; the flag already defaults.
	if max := len(engine.PlatformVariants()); *platforms < 1 || *platforms > max {
		return fmt.Errorf("sweep: -platforms must be in [1, %d]", max)
	}
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProf()

	// One spec for both paths: a local run expands it here, a -remote run
	// submits it and its workers expand it the same way.
	spec := fabric.JobSpec{
		N: *n, Apps: *nApps, Seed: *seed, MaxM: *maxM, Starts: *starts,
		Tol: *tol, Objective: *objective, Budget: *budget,
		Platforms: *platforms, Exhaustive: *exhaustive, Shards: *shards,
		Jitter: *jitter, ArrivalSeed: *arrivalSeed, ArrivalCycles: *arrivalCycles,
		L2Lines: *l2Lines, L2Ways: *l2Ways, L2Hit: *l2Hit, L2Exclusive: *l2Exclusive,
	}
	grid, err := spec.Grid()
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}

	if *remote != "" {
		if *storeDir != "" || *resume {
			// The coordinator owns the store in a remote run; mixing in local
			// persistence flags would silently split results across stores.
			return fmt.Errorf("sweep: -remote excludes -store and -resume")
		}
		results, err := runRemote(*remote, spec, scenarios, *workers, *remotePoll, *remoteTimeout)
		if err != nil {
			return err
		}
		if *csv {
			if err := writeCSV(stdout, results); err != nil {
				return err
			}
			return stopProf()
		}
		writeTable(stdout, results, grid.Platforms)
		return stopProf()
	}

	cfg := engine.Config{Workers: *workers, Resume: *resume}
	if *storeDir != "" {
		st, err := store.OpenWithOptions(*storeDir, store.Options{SyncPuts: *storeSync})
		if err != nil {
			return err
		}
		defer st.Close()
		cfg.Store = st
	} else if *resume {
		return fmt.Errorf("sweep: -resume requires -store")
	}

	results, err := engine.Sweep(cfg, scenarios)
	if err != nil {
		return err
	}

	if *csv {
		if err := writeCSV(stdout, results); err != nil {
			return err
		}
		return stopProf()
	}
	writeTable(stdout, results, grid.Platforms)
	return stopProf()
}

// maxUnreachablePolls bounds how many consecutive status polls may fail
// before -remote gives up on the coordinator. Each failed poll has already
// survived the protocol client's own retry budget, so this is minutes of
// sustained unreachability, not one dropped packet — and distinctly NOT
// the slow-progress case, which only the overall -remote-timeout bounds.
const maxUnreachablePolls = 8

// runRemote submits the grid as a cluster job, waits for the coordinator's
// workers to finish every shard, then assembles the results through the
// coordinator's HTTP store: a resume-mode sweep that loads each scenario's
// checkpoint record, bit-identical to running the grid locally. Progress
// goes to stderr so stdout stays exactly the local report.
//
// The wait distinguishes two failure shapes: a job that is progressing
// slowly is given the full -remote-timeout, while a coordinator that has
// stopped answering at all fails fast after maxUnreachablePolls
// consecutive poll failures with an error naming the real problem. Polls
// ride a decorrelated-jitter schedule so many drivers watching one
// coordinator spread their load.
func runRemote(base string, spec fabric.JobSpec, scenarios []engine.Scenario, workers int, poll, timeout time.Duration) ([]*engine.Result, error) {
	cl := fabric.NewClient(base, nil)
	jobID, err := cl.Submit(spec)
	if err != nil {
		return nil, fmt.Errorf("sweep: submit to %s: %w", base, err)
	}
	fmt.Fprintf(os.Stderr, "sweep: job %s submitted to %s\n", jobID, base)
	deadline := time.Now().Add(timeout)
	jit := resilience.NewJitter(poll, 3*poll, resilience.SeedOf(jobID))
	lastDone := -1
	unreachable := 0
	for {
		st, err := cl.Status(jobID)
		if err != nil {
			unreachable++
			fmt.Fprintf(os.Stderr, "sweep: job %s: status poll failed (%d consecutive): %v\n", jobID, unreachable, err)
			if unreachable >= maxUnreachablePolls {
				return nil, fmt.Errorf("sweep: job %s: coordinator %s unreachable for %d consecutive polls: %w",
					jobID, base, unreachable, err)
			}
		} else {
			unreachable = 0
			if st.Done != lastDone {
				fmt.Fprintf(os.Stderr, "sweep: job %s: %d/%d shard(s) done\n", jobID, st.Done, len(st.Shards))
				lastDone = st.Done
				jit.Reset() // progress: poll eagerly again
			}
			if st.Complete {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("sweep: job %s not complete after %v (are workers running against %s?)", jobID, timeout, base)
		}
		time.Sleep(jit.Next())
	}
	return engine.Sweep(engine.Config{
		Workers: workers,
		Store:   httpstore.New(base, nil),
		Resume:  true,
	}, scenarios)
}

func writeCSV(w io.Writer, results []*engine.Result) error {
	if _, err := fmt.Fprintln(w, "scenario,seed,apps,best,pall,found,evaluated,hits,misses,hit_rate"); err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%q,%.6g,%v,%d,%d,%d,%.4f\n",
			r.Name, r.Seed, r.AppCount, r.Best, r.BestValue, r.FoundBest,
			r.Evaluated, r.CacheStats.Hits, r.CacheStats.Misses, r.CacheStats.HitRate()); err != nil {
			return err
		}
	}
	return nil
}

func writeTable(w io.Writer, results []*engine.Result, platforms int) {
	fmt.Fprintf(w, "%-6s %-6s %-14s %10s %6s %6s %9s\n",
		"name", "seed", "best", "P_all", "evals", "hits", "hit-rate")
	var (
		found      int
		totalEvals int64
		totalHits  int64
		totalLooks int64
	)
	for _, r := range results {
		best := "-"
		if r.FoundBest {
			best = r.Best.String()
			found++
		}
		fmt.Fprintf(w, "%-6s %-6d %-14s %10.4f %6d %6d %8.1f%%\n",
			r.Name, r.Seed, best, r.BestValue, r.Evaluated,
			r.CacheStats.Hits, 100*r.CacheStats.HitRate())
		totalEvals += r.CacheStats.Misses
		totalHits += r.CacheStats.Hits
		totalLooks += r.CacheStats.Lookups()
	}
	fmt.Fprintf(w, "\n%d/%d scenarios found a feasible schedule across %d platform variant(s)\n",
		found, len(results), platforms)
	rate := 0.0
	if totalLooks > 0 {
		rate = float64(totalHits) / float64(totalLooks)
	}
	fmt.Fprintf(w, "distinct evaluations %d, cache hits %d (aggregate hit rate %.1f%%)\n",
		totalEvals, totalHits, 100*rate)
}
