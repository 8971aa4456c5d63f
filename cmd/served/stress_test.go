package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/search"
)

// TestSharedExecutorStress drives the three heaviest consumers of the
// process-wide concurrency governor at once — HTTP design batches through
// the service, a timing-objective scenario sweep, and a shared-cache
// exhaustive search — and checks that results match their serial baselines
// while the executor ends the run with no leaked tokens or stuck waiters.
// CI runs this under -race; it is the integration pin for the "one
// executor, many nested layers, no deadlock" contract.
func TestSharedExecutorStress(t *testing.T) {
	_, hs := testServer(t, "")
	defer hs.Close()

	scenarios := make([]engine.Scenario, 6)
	for i := range scenarios {
		scenarios[i] = engine.Scenario{Seed: int64(i + 1), MaxM: 5, Exhaustive: true}
	}
	serialSweep, err := engine.Sweep(engine.Config{Workers: 1}, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	fw, err := exp.DefaultFramework(exp.Budget("tiny"))
	if err != nil {
		t.Fatal(err)
	}
	serialEx, err := search.ExhaustiveCached(search.NewCache(fw.EvalFunc()), fw.Timings, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	report := func(format string, args ...any) {
		select {
		case errCh <- fmt.Errorf(format, args...):
		default:
		}
	}

	// HTTP design batches (each fans out over the executor inside the
	// handler) racing against the compute below.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 3; r++ {
				url := fmt.Sprintf("%s/v1/design?schedule=1,1,1&schedule=2,1,1&schedule=%d,1,1", hs.URL, 1+g)
				resp, err := http.Get(url)
				if err != nil {
					report("design request: %v", err)
					return
				}
				var body struct {
					Results []designResponse `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					report("design decode: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK || len(body.Results) != 3 {
					report("design status %d results %d", resp.StatusCode, len(body.Results))
					return
				}
			}
		}(g)
	}

	// Concurrent sweeps (scenario-level ForEach over the same executor).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := engine.Sweep(engine.Config{Workers: 4}, scenarios)
			if err != nil {
				report("sweep: %v", err)
				return
			}
			for i := range got {
				if got[i].Best.String() != serialSweep[i].Best.String() || got[i].BestValue != serialSweep[i].BestValue {
					report("sweep scenario %d diverged from serial", i)
					return
				}
			}
		}()
	}

	// Exhaustive searches through a shared cache (nested: search ForEach →
	// framework evaluation → per-app ForEach → PSO pool).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := search.ExhaustiveCached(search.NewCache(fw.EvalFunc()), fw.Timings, 3, 8)
			if err != nil {
				report("exhaustive: %v", err)
				return
			}
			if !got.Best.Equal(serialEx.Best) || got.BestValue != serialEx.BestValue {
				report("exhaustive diverged: %v@%v vs %v@%v", got.Best, got.BestValue, serialEx.Best, serialEx.BestValue)
			}
		}()
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := parallel.Default().Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("executor left dirty after stress: %+v", st)
	}
}

// TestStatszExecutorGauges pins the /statsz executor block.
func TestStatszExecutorGauges(t *testing.T) {
	_, hs := testServer(t, "")
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Executor struct {
			Capacity   int `json:"capacity"`
			InFlight   int `json:"in_flight"`
			QueueDepth int `json:"queue_depth"`
		} `json:"executor"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Executor.Capacity < 1 {
		t.Fatalf("executor capacity %d", body.Executor.Capacity)
	}
	if body.Executor.InFlight != 0 || body.Executor.QueueDepth != 0 {
		t.Fatalf("idle service reports in_flight=%d queue_depth=%d", body.Executor.InFlight, body.Executor.QueueDepth)
	}
}
