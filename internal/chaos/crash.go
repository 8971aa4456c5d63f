package chaos

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Crash points instrumented in the cluster binaries. A CrashPlan names one
// of these and a hit count; the process dies (SIGKILL, no cleanup, no
// deferred writes) the moment the named point is reached for the N-th time.
// Together with the seeded fault middleware this turns "what if the process
// dies right here" from a flaky race into an exact, replayable schedule:
// the crash-recovery matrix stages a coordinator death at a precise journal
// offset and a worker death in the window between publishing its records
// and reporting its shard complete.
const (
	// CrashJournalAppend fires after a coordinator journal record has been
	// appended (and fsynced, under the always policy) but before the state
	// transition is acknowledged to the caller — the record is durable, the
	// response is lost.
	CrashJournalAppend = "journal-append"
	// CrashWorkerPreComplete fires after a worker has finished (and
	// published) every scenario of its leased shard but before it calls
	// Complete — the store holds all the records, the lease table never
	// learns.
	CrashWorkerPreComplete = "worker-pre-complete"
)

// CrashEnv is the environment variable ArmFromEnv reads: "<point>:<n>"
// (e.g. "journal-append:2" — die at the second journal append). Multi-
// process tests set it on a child; an empty or unset value arms nothing.
const CrashEnv = "CHAOS_CRASH"

// CrashPlan schedules one deterministic process crash: the After-th Hit of
// Point calls Kill (default: SIGKILL the own process). Hits of other points
// and all hits after the crash fired are free.
type CrashPlan struct {
	Point string
	After int64  // 1-based: crash on the After-th Hit of Point
	Kill  func() // test hook; nil means SIGKILL self and never return

	hits atomic.Int64
}

// Hit records one pass through the named crash point and crashes the
// process when the plan's schedule says so. A nil plan never fires.
func (p *CrashPlan) Hit(point string) {
	if p == nil || point != p.Point {
		return
	}
	if p.hits.Add(1) != p.After {
		return
	}
	if p.Kill != nil {
		p.Kill()
		return
	}
	killSelf()
}

// Hits reports how many times the plan's point has been reached.
func (p *CrashPlan) Hits() int64 { return p.hits.Load() }

// killSelf delivers an uncatchable SIGKILL to the own process: no deferred
// functions, no flushes — exactly the death the durability layer must
// survive. The trailing select covers the delivery window so instrumented
// code can treat Hit as not returning once the plan fires.
func killSelf() {
	proc, err := os.FindProcess(os.Getpid())
	if err == nil {
		proc.Kill()
	}
	select {}
}

// armed is the process-global plan MaybeCrash consults. Instrumentation
// points stay zero-cost (one atomic load) while nothing is armed.
var armed atomic.Pointer[CrashPlan]

// Arm installs the process-global crash plan; nil disarms. Tests that arm a
// plan must disarm it on cleanup.
func Arm(p *CrashPlan) { armed.Store(p) }

// MaybeCrash is the instrumentation hook: it forwards the point to the
// armed plan, if any. Production code calls this unconditionally.
func MaybeCrash(point string) { armed.Load().Hit(point) }

// ArmFromEnv parses CrashEnv and arms the plan it describes, returning it
// (nil when the variable is unset). The binaries call this at startup so a
// test harness can stage crashes in child processes without special flags.
func ArmFromEnv() (*CrashPlan, error) {
	spec := os.Getenv(CrashEnv)
	if spec == "" {
		return nil, nil
	}
	point, nstr, ok := strings.Cut(spec, ":")
	if !ok || point == "" {
		return nil, fmt.Errorf("chaos: %s=%q: want \"<point>:<n>\"", CrashEnv, spec)
	}
	n, err := strconv.ParseInt(nstr, 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("chaos: %s=%q: hit count must be a positive integer", CrashEnv, spec)
	}
	p := &CrashPlan{Point: point, After: n}
	Arm(p)
	return p, nil
}
