package engine

import (
	"fmt"

	"repro/internal/cachesim"
	"repro/internal/ctrl"
	"repro/internal/sched"
)

// Grid is a declarative randomized-sweep specification: n scenarios with
// consecutive seeds cycling over a prefix of the cache-platform variants.
// It is the single scenario-construction path shared by cmd/sweep and the
// HTTP design service (cmd/served), so a sweep requested over HTTP hits
// exactly the same store keys as the same sweep run from the command line.
type Grid struct {
	N      int   // number of scenarios (>= 1)
	Apps   int   // applications per scenario (default 3)
	Seed   int64 // base seed; scenario i uses Seed+i
	MaxM   int   // burst-length cap (default 6)
	Starts int   // random hybrid starts per scenario (default 2)
	Tol    float64

	Objective  Objective
	Budget     ctrl.DesignOptions // design budget for ObjectiveDesign
	Platforms  int                // platform variants to cycle through (1..len(PlatformVariants))
	Exhaustive bool

	// Arrival axis: Jitter > 0 switches every scenario to sporadic releases
	// with that bounded jitter fraction, seeded by ArrivalSeed and simulated
	// over ArrivalCycles schedule periods (0 = sched.DefaultArrivalCycles).
	Jitter        float64
	ArrivalSeed   int64
	ArrivalCycles int

	// Hierarchy axis: L2Lines > 0 overlays an L2 cache on every scenario's
	// platform variant. Line size and memory cost come from the variant's L1;
	// L2Ways defaults to 4 and L2Hit to 10 cycles. L2Exclusive selects the
	// victim-cache mode.
	L2Lines     int
	L2Ways      int
	L2Hit       int
	L2Exclusive bool
}

// gridWorkers is every grid scenario's intra-scenario worker count for the
// exhaustive pass. Results and store keys do not depend on it.
const gridWorkers = 2

// Scenarios expands the grid into its scenario list. Scenario i is named
// s%03d and seeded Seed+i, on platform variant i mod Platforms.
func (g Grid) Scenarios() ([]Scenario, error) {
	if g.N < 1 {
		return nil, fmt.Errorf("engine: grid needs at least 1 scenario")
	}
	variants := PlatformVariants()
	if g.Platforms == 0 {
		g.Platforms = 1
	}
	if g.Platforms < 1 || g.Platforms > len(variants) {
		return nil, fmt.Errorf("engine: grid platforms must be in [1, %d]", len(variants))
	}
	// Axis parameters are validated here rather than left to the scenario,
	// because the grid's activation rule (> 0) would silently swallow a
	// negative value as "periodic" / "single-level".
	if !(g.Jitter >= 0 && g.Jitter < 1) { // negated so NaN fails too
		return nil, fmt.Errorf("engine: grid jitter %g outside [0, 1)", g.Jitter)
	}
	if g.L2Lines < 0 || g.L2Ways < 0 || g.L2Hit < 0 {
		return nil, fmt.Errorf("engine: grid L2 geometry cannot be negative")
	}
	plats := variants[:g.Platforms]
	var arrival sched.Arrival
	if g.Jitter > 0 {
		arrival = sched.Arrival{
			Model:  sched.ArrivalSporadic,
			Jitter: g.Jitter,
			Seed:   g.ArrivalSeed,
			Cycles: g.ArrivalCycles,
		}
	}
	scenarios := make([]Scenario, g.N)
	for i := range scenarios {
		plat := plats[i%len(plats)]
		if g.L2Lines > 0 {
			ways := g.L2Ways
			if ways == 0 {
				ways = 4
			}
			hit := g.L2Hit
			if hit == 0 {
				hit = 10
			}
			plat.Hier = cachesim.Hierarchy{
				L2: cachesim.Config{
					Lines:      g.L2Lines,
					LineSize:   plat.Cache.LineSize,
					Ways:       ways,
					Policy:     cachesim.LRU,
					HitCycles:  hit,
					MissCycles: plat.Cache.MissCycles,
				},
				Exclusive: g.L2Exclusive,
			}
			if err := plat.Hier.Validate(plat.Cache); err != nil {
				return nil, fmt.Errorf("engine: grid L2 overlay: %w", err)
			}
		}
		scenarios[i] = Scenario{
			Name:       fmt.Sprintf("s%03d", i),
			Seed:       g.Seed + int64(i),
			NumApps:    g.Apps,
			Platform:   plat,
			Arrival:    arrival,
			MaxM:       g.MaxM,
			Starts:     g.Starts,
			Tolerance:  g.Tol,
			Objective:  g.Objective,
			Budget:     g.Budget,
			Exhaustive: g.Exhaustive,
			Workers:    gridWorkers,
		}
	}
	return scenarios, nil
}
