package main

import (
	"sync"
	"time"
)

// loop is the result of one closed-loop phase: workers goroutines each
// issue the next operation as soon as their previous one returns.
type loop struct {
	workers  int
	ops      int
	failed   int
	lat      []float64 // seconds per operation by operation number, failed ones included
	wall     float64
	firstErr error
}

// busy returns the summed operation latency.
func (l *loop) busy() float64 { return sum(l.lat) }

// time is the phase's length as the callers experience it: by Little's
// law, workers closed-loop callers complete operations at workers / mean
// latency, so busy/workers is the phase length without the idle tail
// where one caller waits for the last long operation of another.
func (l *loop) time() float64 {
	w := l.workers
	if l.ops < w {
		w = l.ops
	}
	if w == 0 {
		return 0
	}
	return l.busy() / float64(w)
}

// runLoop runs op(0), op(1), ... on workers goroutines. Operation i is
// issued unless i >= limit (limit < 0: no limit), or unless i starts a new
// granule, at least minOps were issued and the deadline has passed — so a
// phase always runs whole granules of work.
func runLoop(workers, limit, minOps, granule int, deadline time.Time, op func(i int) error) *loop {
	if granule < 1 {
		granule = 1
	}
	var (
		mu   sync.Mutex
		next int
		done bool
		wg   sync.WaitGroup
		res  = &loop{workers: workers}
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case done:
		case limit >= 0 && next >= limit:
			done = true
		case next >= minOps && next%granule == 0 && time.Now().After(deadline):
			done = true
		default:
			next++
			return next - 1, true
		}
		return 0, false
	}
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := map[int]float64{}
			failed := 0
			var first error
			for {
				i, ok := claim()
				if !ok {
					break
				}
				t0 := time.Now()
				err := op(i)
				lat[i] = time.Since(t0).Seconds()
				if err != nil {
					failed++
					if first == nil {
						first = err
					}
				}
			}
			mu.Lock()
			for len(res.lat) < next {
				res.lat = append(res.lat, 0)
			}
			for i, d := range lat {
				res.lat[i] = d
			}
			res.ops += len(lat)
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = first
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start).Seconds()
	return res
}

// unitMedians returns, for each of units units of a suite the operations
// repeat, the median latency of the operations unit(i) maps to it: a pass
// that a slow stretch of the machine hit counts as one sample out of many.
func unitMedians(lat []float64, units int, unit func(i int) int) []float64 {
	byUnit := make([][]float64, units)
	for i, d := range lat {
		u := unit(i)
		byUnit[u] = append(byUnit[u], d)
	}
	meds := make([]float64, units)
	for u, xs := range byUnit {
		meds[u] = median(xs)
	}
	return meds
}
