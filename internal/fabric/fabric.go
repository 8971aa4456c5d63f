// Package fabric is the distributed sweep fabric: the one way to split a
// scenario grid (engine.Sweep's input) across processes. A coordinator
// (cmd/served) registers sweep jobs, splits each into contiguous shard
// ranges (ShardRange), and
// leases shards to workers over a small HTTP protocol (/v1/shards/*);
// workers (served -worker) run their leased range scenario by scenario,
// publishing every evaluation outcome and per-scenario checkpoint into the
// coordinator's shared store through the HTTP store backend
// (internal/store/httpstore), and heartbeat their lease while they work.
//
// The lease state machine per shard:
//
//	pending ──acquire──▶ leased(worker, expires) ──complete──▶ done
//	   ▲                      │
//	   └──────(ttl expires; next acquire steals the shard)◀───┘
//
// Fault tolerance falls out of two properties rather than consensus:
//
//   - Every evaluation is deterministic and every store write is an atomic
//     whole record, so two workers racing the same shard — after a steal,
//     a heartbeat lost to a partition, or a duplicated completion — write
//     byte-identical records. Duplicated work wastes cycles, never
//     correctness, which is why Complete is idempotent and accepted even
//     from a worker whose lease was stolen (its records are already in the
//     store).
//   - The store is the only state results depend on. Lease state is
//     in-memory: without a journal a coordinator restart forgets jobs, but
//     re-submitting the same spec yields the same job ID (content-hashed)
//     and every scenario already checkpointed resumes from the store
//     instead of recomputing, so a restarted cluster heals forward. With
//     a Journal, which fsyncs each first-time Submit and Complete once,
//     jobs and done shards survive the restart as well. Workers treat
//     coordinator downtime as a cold store plus retried polls.
//
// Results are assembled by anyone with store access: a resume-mode sweep
// (engine.Sweep with Resume and the shared store, e.g. cmd/sweep -remote)
// loads every checkpoint and renders output bit-identical to a
// single-process run — the cold ≡ warm ≡ kill+resume guarantee extended
// to ≡ distributed.
package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/sched"
)

// Request bounds of one JobSpec, the only caps on a randomized sweep that
// arrives over HTTP: the coordinator enforces them on submitted jobs and
// cmd/served on /v1/sweep requests (and on /v1/table's maxm). Both are
// long-lived, and a single request must not be able to take them down.
const (
	MaxScenarios = 10000 // n per job
	MaxApps      = 8     // apps per scenario (box grows as maxm^apps)
	MaxMaxM      = 12    // burst-length cap
	MaxStarts    = 16    // hybrid starts per scenario
	MaxShards    = 64    // shard leases per job

	MaxArrivalCycles = 4096  // sporadic timeline length (events = cycles x apps)
	MaxL2Lines       = 65536 // L2 overlay size
	MaxL2Ways        = 64    // L2 overlay associativity
)

// ShardRange returns the half-open scenario-index range [lo, hi) owned by
// shard index of count over an n-scenario grid: shard k of n runs
// scenarios [k*n/count, (k+1)*n/count). The coordinator's status and the
// worker's leased range both come from this one function, which is why a
// cluster's shards tile the grid exactly. count <= 1 means unsharded: a
// lease arrives over HTTP, so no count may divide by zero here.
func ShardRange(index, count, n int) (lo, hi int) {
	if count <= 1 {
		return 0, n
	}
	return index * n / count, (index + 1) * n / count
}

// Lease TTL clamps: a worker may ask for any TTL, but the coordinator keeps
// it inside sane bounds so a typo cannot pin a shard forever or thrash it.
const (
	DefaultTTL = 10 * time.Second
	MinTTL     = 100 * time.Millisecond
	MaxTTL     = 10 * time.Minute
)

// Protocol errors surfaced by the manager (and mapped onto HTTP statuses by
// the handler: ErrUnknownJob → 404, ErrLeaseLost → 409, ErrJournal → 500 so
// retrying clients treat a stalled disk as transient).
var (
	ErrUnknownJob = errors.New("fabric: unknown job")
	ErrLeaseLost  = errors.New("fabric: lease lost")
	ErrJournal    = errors.New("fabric: journal write failed")
)

// JobSpec is the one wire form of a randomized sweep: the parameters of
// engine.Grid with objective and budget by name, plus the shard count a
// distributed job is split into. cmd/sweep builds one from its flags (for
// local and -remote runs alike), /v1/sweep decodes one from its query or
// body, and the coordinator takes one per submitted job; each expands it
// with Grid. The zero values of the optional fields mean "engine default",
// so every path builds the same scenarios — which is what keeps
// distributed store keys identical to local ones.
type JobSpec struct {
	N          int     `json:"n"`
	Apps       int     `json:"apps,omitempty"`
	Seed       int64   `json:"seed"`
	MaxM       int     `json:"maxm,omitempty"`
	Starts     int     `json:"starts,omitempty"`
	Tol        float64 `json:"tol,omitempty"`
	Objective  string  `json:"objective,omitempty"` // "timing" (default) | "design"
	Budget     string  `json:"budget,omitempty"`    // design budget name (default "quick")
	Platforms  int     `json:"platforms,omitempty"`
	Exhaustive bool    `json:"exhaustive,omitempty"`

	// Arrival axis (engine.Grid's sporadic-release fields). All omitempty:
	// a legacy spec that never heard of the axis serializes — and hashes —
	// exactly as before.
	Jitter        float64 `json:"jitter,omitempty"`
	ArrivalSeed   int64   `json:"arrival_seed,omitempty"`
	ArrivalCycles int     `json:"arrival_cycles,omitempty"`

	// Hierarchy axis (engine.Grid's L2-overlay fields), same contract.
	L2Lines     int  `json:"l2_lines,omitempty"`
	L2Ways      int  `json:"l2_ways,omitempty"`
	L2Hit       int  `json:"l2_hit,omitempty"`
	L2Exclusive bool `json:"l2_exclusive,omitempty"`

	// Shards is the number of contiguous scenario ranges the job is leased
	// out as (clamped to N at submission; 0 = one shard).
	Shards int `json:"shards"`
}

// normalized returns the spec with defaults resolved, the form that is
// hashed into the job ID and returned to workers. Every zero value resolves
// to the engine's documented default (Scenario.withDefaults), so a spec
// that spells the defaults out and one that omits them expand to the same
// scenarios — and therefore must be the same job.
func (s JobSpec) normalized() JobSpec {
	if s.Apps == 0 {
		s.Apps = 3
	}
	if s.MaxM == 0 {
		s.MaxM = 6
	}
	if s.Starts == 0 {
		s.Starts = 2
	}
	if s.Tol == 0 {
		s.Tol = 0.01
	}
	if s.Platforms == 0 {
		s.Platforms = 1
	}
	if s.Objective == "" {
		s.Objective = "timing"
	}
	if s.Budget == "" {
		s.Budget = "quick"
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	if s.Shards > s.N {
		s.Shards = s.N
	}
	// Axis fields: resolve defaults when the axis is active, clear them when
	// it is not — the grid ignores inactive-axis parameters, so specs that
	// differ only in them expand to the same scenarios and must share an ID.
	// An invalid activating value (negative, NaN) is left as is, so Grid
	// still rejects it in runs that skip Validate.
	switch {
	case s.Jitter > 0:
		if s.ArrivalCycles == 0 {
			s.ArrivalCycles = sched.DefaultArrivalCycles
		}
	case s.Jitter == 0:
		s.ArrivalSeed, s.ArrivalCycles = 0, 0
	}
	switch {
	case s.L2Lines > 0:
		if s.L2Ways == 0 {
			s.L2Ways = 4
		}
		if s.L2Hit == 0 {
			s.L2Hit = 10
		}
	case s.L2Lines == 0:
		s.L2Ways, s.L2Hit, s.L2Exclusive = 0, 0, false
	}
	return s
}

// Validate bounds-checks the spec against the job caps and checks that it
// expands (known objective and budget names).
func (s JobSpec) Validate() error {
	if s.N < 1 || s.N > MaxScenarios {
		return fmt.Errorf("fabric: n must be in [1, %d]", MaxScenarios)
	}
	for _, b := range []struct {
		name string
		val  int
		max  int
	}{
		{"apps", s.Apps, MaxApps},
		{"maxm", s.MaxM, MaxMaxM},
		{"starts", s.Starts, MaxStarts},
	} {
		if b.val < 0 || b.val > b.max {
			return fmt.Errorf("fabric: %s must be in [0, %d] (0 = default)", b.name, b.max)
		}
	}
	if s.Shards < 0 || s.Shards > MaxShards {
		return fmt.Errorf("fabric: shards must be in [0, %d] (0 = 1)", MaxShards)
	}
	if s.Tol < 0 || math.IsInf(s.Tol, 1) || math.IsNaN(s.Tol) {
		return fmt.Errorf("fabric: tol must be finite and non-negative (0 = default)")
	}
	if max := len(engine.PlatformVariants()); s.Platforms < 0 || s.Platforms > max {
		return fmt.Errorf("fabric: platforms must be in [0, %d]", max)
	}
	if s.Jitter < 0 || s.Jitter >= 1 || math.IsNaN(s.Jitter) {
		return fmt.Errorf("fabric: jitter must be in [0, 1)")
	}
	if s.ArrivalCycles < 0 || s.ArrivalCycles == 1 || s.ArrivalCycles > MaxArrivalCycles {
		return fmt.Errorf("fabric: arrival_cycles must be 0 (default) or in [2, %d]", MaxArrivalCycles)
	}
	if s.L2Lines < 0 || s.L2Lines > MaxL2Lines {
		return fmt.Errorf("fabric: l2_lines must be in [0, %d]", MaxL2Lines)
	}
	if s.L2Ways < 0 || s.L2Ways > MaxL2Ways {
		return fmt.Errorf("fabric: l2_ways must be in [0, %d] (0 = default)", MaxL2Ways)
	}
	if s.L2Hit < 0 {
		return fmt.Errorf("fabric: l2_hit must be non-negative (0 = default)")
	}
	_, err := s.Grid()
	return err
}

// Grid expands the spec into the engine.Grid every participant — workers
// running shards, assemblers resuming results — derives scenarios from.
// Equal specs produce equal grids, hence equal scenario tasksets, hence
// equal content-hashed store keys on every machine.
func (s JobSpec) Grid() (engine.Grid, error) {
	s = s.normalized()
	obj, err := engine.ParseObjective(s.Objective)
	if err != nil {
		return engine.Grid{}, fmt.Errorf("fabric: %w", err)
	}
	if !exp.KnownBudget(s.Budget) {
		return engine.Grid{}, fmt.Errorf("fabric: unknown budget %q", s.Budget)
	}
	return engine.Grid{
		N: s.N, Apps: s.Apps, Seed: s.Seed, MaxM: s.MaxM,
		Starts: s.Starts, Tol: s.Tol, Objective: obj,
		Budget: exp.Budget(s.Budget), Platforms: s.Platforms,
		Exhaustive: s.Exhaustive,
		Jitter:     s.Jitter, ArrivalSeed: s.ArrivalSeed, ArrivalCycles: s.ArrivalCycles,
		L2Lines: s.L2Lines, L2Ways: s.L2Ways, L2Hit: s.L2Hit, L2Exclusive: s.L2Exclusive,
	}, nil
}

// ID returns the job's content-derived identity: a hash of the normalized
// spec. Re-submitting a spec — by a retrying driver, or after a coordinator
// restart wiped the in-memory job table — lands on the same job, so store
// records and job identity stay aligned across failures.
func (s JobSpec) ID() string {
	data, _ := json.Marshal(s.normalized())
	sum := sha256.Sum256(data)
	return "job-" + hex.EncodeToString(sum[:])[:16]
}

type shardState int

const (
	shardPending shardState = iota
	shardLeased
	shardDone
)

type shardSlot struct {
	state   shardState
	worker  string
	expires time.Time
}

type job struct {
	spec    JobSpec
	shards  []shardSlot
	created time.Time
	seq     int // submission order, for deterministic acquire scans
}

// Lease is one granted shard: which contiguous range of which job the
// worker now owns, and for how long before the shard becomes stealable.
type Lease struct {
	Job    string  `json:"job"`
	Shard  int     `json:"shard"`
	Shards int     `json:"shards"`
	Spec   JobSpec `json:"spec"`
	TTLMS  int64   `json:"ttl_ms"`
}

// ShardInfo is the observable state of one shard in a job status report.
type ShardInfo struct {
	Index       int    `json:"index"`
	Lo          int    `json:"lo"` // half-open scenario range [lo, hi)
	Hi          int    `json:"hi"`
	State       string `json:"state"` // pending | leased | expired | done
	Worker      string `json:"worker,omitempty"`
	ExpiresInMS int64  `json:"expires_in_ms,omitempty"`
}

// JobStatus is the snapshot returned by Status and the jobs listing.
type JobStatus struct {
	Job      string      `json:"job"`
	Spec     JobSpec     `json:"spec"`
	Shards   []ShardInfo `json:"shards"`
	Pending  int         `json:"pending"`
	Leased   int         `json:"leased"`
	Done     int         `json:"done"`
	Complete bool        `json:"complete"`
}

// Manager is the coordinator's lease table. All methods are safe for
// concurrent use. Results always live in the shared store; the table itself
// is in-memory unless a Journal is attached (Recover), in which case the
// two durable transitions — a job exists (Submit), a shard's records are
// all in the store (Complete) — are write-ahead logged and survive a
// coordinator crash. Leases stay soft state either way: a restarted
// coordinator replays leased shards as pending and workers re-acquire them
// through TTL-expiry stealing.
type Manager struct {
	mu      sync.Mutex
	jobs    map[string]*job
	seq     int
	now     func() time.Time // injectable clock for lease-expiry tests
	journal *Journal         // nil = volatile manager
}

// NewManager returns an empty lease table on the real clock.
func NewManager() *Manager {
	return &Manager{jobs: make(map[string]*job), now: time.Now}
}

// Submit registers a job (idempotently: the same normalized spec maps to
// the same ID, and an existing job is returned rather than reset, so a
// retried submission cannot orphan live leases).
func (m *Manager) Submit(spec JobSpec) (id string, created bool, err error) {
	if err := spec.Validate(); err != nil {
		return "", false, err
	}
	spec = spec.normalized()
	id = spec.ID()
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.jobs[id]; ok {
		return id, false, nil
	}
	// Write-ahead: the record must be durable before the job exists, or a
	// crash could lose a job the driver was told about. On journal failure
	// the submission is refused (retryable) rather than accepted volatile.
	if err := m.journalLocked(Record{Op: OpSubmit, Spec: &spec}); err != nil {
		return "", false, err
	}
	m.seq++
	m.jobs[id] = &job{
		spec:    spec,
		shards:  make([]shardSlot, spec.Shards),
		created: m.now(),
		seq:     m.seq,
	}
	return id, true, nil
}

// journalLocked appends one record to the attached journal, if any, mapping
// failures onto the retryable ErrJournal sentinel. Callers hold m.mu.
func (m *Manager) journalLocked(rec Record) error {
	if m.journal == nil {
		return nil
	}
	if err := m.journal.Append(rec); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// RecoverStats summarizes one journal replay.
type RecoverStats struct {
	Records    int `json:"records"`     // journal records replayed
	Jobs       int `json:"jobs"`        // jobs recovered
	DoneShards int `json:"done_shards"` // shards recovered as done
	Skipped    int `json:"skipped"`     // stale/invalid records ignored
}

// Recover replays a freshly opened journal into the manager and attaches it
// for subsequent write-ahead logging. It must be called before the manager
// serves traffic (typically on a NewManager; the readiness probe gates
// /v1/shards until it returns). Replay is idempotent and forgiving the same
// way the live operations are. A record that repeats one already applied
// is counted as skipped: the live Manager never journals a transition
// twice, but an older coordinator that died between writing its snapshot
// and truncating its log left both holding the same records. A complete
// for an unknown job or an out-of-range shard, which no coordinator
// writes, is skipped too rather than fatal.
func (m *Manager) Recover(j *Journal) (RecoverStats, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st RecoverStats
	for _, rec := range j.Replayed() {
		st.Records++
		switch rec.Op {
		case OpSubmit:
			if rec.Spec == nil {
				st.Skipped++
				continue
			}
			spec := rec.Spec.normalized()
			id := spec.ID()
			if _, ok := m.jobs[id]; ok {
				st.Skipped++
				continue
			}
			m.seq++
			m.jobs[id] = &job{
				spec:    spec,
				shards:  make([]shardSlot, spec.Shards),
				created: m.now(),
				seq:     m.seq,
			}
			st.Jobs++
		case OpComplete:
			jb, ok := m.jobs[rec.Job]
			if !ok || rec.Shard < 0 || rec.Shard >= len(jb.shards) {
				st.Skipped++
				continue
			}
			if jb.shards[rec.Shard].state == shardDone {
				st.Skipped++
				continue
			}
			jb.shards[rec.Shard] = shardSlot{state: shardDone}
			st.DoneShards++
		default:
			st.Skipped++
		}
	}
	j.DropReplayed()
	m.journal = j
	return st, nil
}

func clampTTL(ttl time.Duration) time.Duration {
	switch {
	case ttl <= 0:
		return DefaultTTL
	case ttl < MinTTL:
		return MinTTL
	case ttl > MaxTTL:
		return MaxTTL
	}
	return ttl
}

// Acquire grants worker the first available shard: a pending one, or a
// leased one whose TTL has expired (work stealing — the previous owner is
// presumed dead; if it is merely slow, its duplicate work is harmless by
// determinism). jobID restricts the scan to one job; empty scans all jobs
// in submission order. ok=false means no work is currently available.
func (m *Manager) Acquire(jobID, worker string, ttl time.Duration) (Lease, bool) {
	ttl = clampTTL(ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	for _, id := range m.scanOrder(jobID) {
		j := m.jobs[id]
		for i := range j.shards {
			sl := &j.shards[i]
			available := sl.state == shardPending ||
				(sl.state == shardLeased && now.After(sl.expires))
			if !available {
				continue
			}
			sl.state = shardLeased
			sl.worker = worker
			sl.expires = now.Add(ttl)
			return Lease{
				Job: id, Shard: i, Shards: len(j.shards),
				Spec: j.spec, TTLMS: ttl.Milliseconds(),
			}, true
		}
	}
	return Lease{}, false
}

// scanOrder returns job IDs in deterministic submission order (or just the
// one requested). Callers hold m.mu.
func (m *Manager) scanOrder(jobID string) []string {
	if jobID != "" {
		if _, ok := m.jobs[jobID]; !ok {
			return nil
		}
		return []string{jobID}
	}
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return m.jobs[ids[a]].seq < m.jobs[ids[b]].seq })
	return ids
}

// Heartbeat extends worker's lease on a shard. A worker that still owns the
// lease may renew even past expiry (it was slow, not dead, and nobody has
// stolen the shard yet); a shard that is done, re-pending, or owned by
// another worker reports ErrLeaseLost — the worker should abandon the shard
// (its completed records are already safe in the store).
func (m *Manager) Heartbeat(jobID string, shard int, worker string, ttl time.Duration) error {
	ttl = clampTTL(ttl)
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return ErrUnknownJob
	}
	if shard < 0 || shard >= len(j.shards) {
		return fmt.Errorf("fabric: shard %d outside [0, %d)", shard, len(j.shards))
	}
	sl := &j.shards[shard]
	if sl.state != shardLeased || sl.worker != worker {
		return ErrLeaseLost
	}
	sl.expires = m.now().Add(ttl)
	return nil
}

// Complete marks a shard done. It is idempotent and deliberately accepted
// from any worker, even one whose lease was stolen: reaching Complete means
// the worker finished the range and every record is already in the store,
// and records are deterministic, so "done" is true no matter who else is
// (re)computing it.
func (m *Manager) Complete(jobID string, shard int, worker string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return ErrUnknownJob
	}
	if shard < 0 || shard >= len(j.shards) {
		return fmt.Errorf("fabric: shard %d outside [0, %d)", shard, len(j.shards))
	}
	if j.shards[shard].state == shardDone {
		// Already durable — a retried or duplicated completion must not
		// journal a second record (a retry loop against a full disk would
		// otherwise grow the log while failing).
		return nil
	}
	if err := m.journalLocked(Record{Op: OpComplete, Job: jobID, Shard: shard}); err != nil {
		return err
	}
	j.shards[shard] = shardSlot{state: shardDone}
	return nil
}

// Status snapshots one job.
func (m *Manager) Status(jobID string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[jobID]
	if !ok {
		return JobStatus{}, false
	}
	return m.status(jobID, j), true
}

// Jobs snapshots every job in submission order.
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.jobs))
	for _, id := range m.scanOrder("") {
		out = append(out, m.status(id, m.jobs[id]))
	}
	return out
}

// status renders a job snapshot; callers hold m.mu.
func (m *Manager) status(id string, j *job) JobStatus {
	now := m.now()
	st := JobStatus{Job: id, Spec: j.spec, Shards: make([]ShardInfo, len(j.shards))}
	for i, sl := range j.shards {
		lo, hi := ShardRange(i, len(j.shards), j.spec.N)
		info := ShardInfo{Index: i, Lo: lo, Hi: hi}
		switch sl.state {
		case shardPending:
			info.State = "pending"
			st.Pending++
		case shardLeased:
			info.State = "leased"
			info.Worker = sl.worker
			if rem := sl.expires.Sub(now); rem > 0 {
				info.ExpiresInMS = rem.Milliseconds()
			} else {
				info.State = "expired" // stealable on next acquire
			}
			st.Leased++
		case shardDone:
			info.State = "done"
			st.Done++
		}
		st.Shards[i] = info
	}
	st.Complete = st.Done == len(j.shards)
	return st
}
