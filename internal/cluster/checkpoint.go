package cluster

import (
	"encoding/json"
	"math"
	"sort"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/sim"
)

// SnapshotKind discriminates a cluster snapshot from a single-server one
// inside the shared versioned envelope (sim.SnapshotVersion).
const SnapshotKind = "cluster"

// CheckpointConfig enables cluster-level checkpointing. The natural
// checkpoint granularity of a cluster run is a completed server: per-server
// simulations are independent seeded runs, so a snapshot is simply the set
// of finished servers' results, and Resume re-runs only the servers the
// snapshot is missing. The Sink is called once after every server finishes
// (serialized — it never runs concurrently with itself), with a snapshot
// covering every server completed so far.
//
// Checkpointing cannot be combined with Instrument: spans, series, and
// metrics for an already-completed server cannot be replayed on resume, so
// Validate rejects the pair with a typed error.
type CheckpointConfig struct {
	// Sink receives each snapshot. An error aborts the run (the crash
	// model) and is returned from Run.
	Sink func(*Snapshot) error
}

// Validate reports configuration errors as typed *cfgerr.Error values.
func (c *CheckpointConfig) Validate() error {
	if c.Sink == nil {
		return cfgerr.New("cluster", "checkpoint", "cluster: checkpoint needs a sink")
	}
	return nil
}

// Snapshot is a resumable image of a partially completed cluster run:
// which servers have finished and their full results. Dispatch, hedging,
// and the budget hierarchy are deterministic recomputations, so they are
// not stored — the fingerprint pins the configuration and workload they
// are recomputed from.
type Snapshot struct {
	Version     string           `json:"version"`
	Kind        string           `json:"kind"`
	Fingerprint uint64           `json:"fingerprint"`
	Servers     int              `json:"servers"`
	Done        []ServerSnapshot `json:"done"`
}

// ServerSnapshot is one finished server's result.
type ServerSnapshot struct {
	Server int        `json:"server"`
	Result sim.Result `json:"result"`
}

// EncodeSnapshot serializes a cluster snapshot. JSON round-trips float64
// exactly, so a decoded snapshot resumes bit-identically.
func EncodeSnapshot(s *Snapshot) ([]byte, error) {
	if s == nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: encode snapshot: %v", err)
	}
	return b, nil
}

// DecodeSnapshot parses and structurally validates a cluster snapshot.
// Malformed input yields a typed *cfgerr.Error, never a panic.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: decode snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Snapshot) validate() error {
	if s.Version != sim.SnapshotVersion {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot version %q, want %q", s.Version, sim.SnapshotVersion)
	}
	if s.Kind != SnapshotKind {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot kind %q, want %q", s.Kind, SnapshotKind)
	}
	if s.Servers <= 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot has %d servers", s.Servers)
	}
	seen := make(map[int]bool, len(s.Done))
	for _, d := range s.Done {
		if d.Server < 0 || d.Server >= s.Servers {
			return cfgerr.New("cluster", "snapshot", "cluster: snapshot result for server %d of %d", d.Server, s.Servers)
		}
		if seen[d.Server] {
			return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds server %d twice", d.Server)
		}
		seen[d.Server] = true
	}
	return nil
}

// Resume continues a checkpointed cluster run: servers present in the
// snapshot keep their recorded results, the rest are simulated, and the
// aggregate is rebuilt exactly as an uninterrupted Run would have built it.
// The snapshot must have been taken under the same configuration and job
// stream — Resume verifies the fingerprint and rejects mismatches with a
// typed error.
func Resume(cfg Config, jobs []job.Job, snap *Snapshot) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := job.ValidateAllByClass(jobs); err != nil {
		return Result{}, err
	}
	if snap == nil {
		return Result{}, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	if err := snap.validate(); err != nil {
		return Result{}, err
	}
	if snap.Servers != cfg.Servers {
		return Result{}, cfgerr.New("cluster", "snapshot", "cluster: snapshot covers %d servers, config has %d", snap.Servers, cfg.Servers)
	}
	if cfg.Instrument != nil {
		return Result{}, cfgerr.New("cluster", "snapshot", "cluster: resume cannot carry Instrument; completed-server telemetry cannot be replayed")
	}
	if got, want := fingerprintCluster(cfg, jobs), snap.Fingerprint; got != want {
		return Result{}, cfgerr.New("cluster", "snapshot",
			"cluster: snapshot fingerprint %#x does not match the configuration (%#x) — config, policy, faults, or workload changed", want, got)
	}
	return run(cfg, jobs, snap.Done)
}

// fingerprintCluster hashes everything the dispatch, hedging, and budget
// stages recompute on resume: fleet shape, policy, physics scalars, fault
// schedules, retry/hedge knobs, and the workload itself. Two runs with the
// same fingerprint recompute identical per-server substreams and budget
// windows, so completed-server results are interchangeable between them.
func fingerprintCluster(cfg Config, jobs []job.Job) uint64 {
	sorted := append([]job.Job(nil), jobs...)
	job.SortByRelease(sorted)
	jobs = sorted

	var f fnvCluster
	f.init()
	hashClusterConfig(&f, cfg)
	f.u64(uint64(len(jobs)))
	for _, j := range jobs {
		f.u64(uint64(j.ID))
		f.f64(j.Release)
		f.f64(j.Deadline)
		f.f64(j.Demand)
		f.b(j.Partial)
		if j.Class != "" {
			f.str(j.Class)
		}
	}
	return f.h
}

// fingerprintClusterConfig is the configuration-only fingerprint used by
// streamed snapshots: the workload cannot be hashed up front (it is pulled
// lazily), so stream snapshots pin the config here and verify the arrival
// prefix separately with a rolling hash (StreamSnapshot.JobsHash).
func fingerprintClusterConfig(cfg Config) uint64 {
	var f fnvCluster
	f.init()
	hashClusterConfig(&f, cfg)
	return f.h
}

// hashClusterConfig folds every configuration field the dispatch, hedging,
// and budget stages depend on into the accumulator.
func hashClusterConfig(f *fnvCluster, cfg Config) {
	f.u64(uint64(cfg.Servers))
	f.u64(uint64(cfg.Dispatch))
	f.f64(cfg.GlobalBudget)
	f.f64(cfg.Epoch)
	f.f64(cfg.Headroom)
	name := "custom"
	if cfg.NewPolicy == nil {
		if spec, err := ParsePolicy(cfg.Policy); err == nil {
			name = spec.Name
		}
	}
	f.str(name)
	f.u64(uint64(cfg.Server.Cores))
	f.f64(cfg.Server.Budget)
	f.f64(cfg.Server.MaxSpeed)
	f.f64(cfg.Server.Retry.Backoff)
	f.f64(cfg.Server.Retry.Multiplier)
	f.f64(cfg.Server.Retry.MaxBackoff)
	f.f64(cfg.Server.Retry.DeadlineSlack)
	f.u64(uint64(cfg.Server.Retry.MaxAttempts))
	f.f64(cfg.Hedge.Window)
	f.u64(uint64(cfg.Hedge.Limit))
	if cfg.Server.Quality != nil {
		f.str(cfg.Server.Quality.Name())
		for _, x := range []float64{1, 10, 100, 500, 1000} {
			f.f64(cfg.Server.Quality.Eval(x))
		}
	}
	// Class-quality overrides and job classes are hashed only when present,
	// keeping fingerprints of legacy class-free runs unchanged.
	if len(cfg.Server.ClassQuality) > 0 {
		names := make([]string, 0, len(cfg.Server.ClassQuality))
		for n := range cfg.Server.ClassQuality {
			names = append(names, n)
		}
		sort.Strings(names)
		f.u64(uint64(len(names)))
		for _, n := range names {
			q := cfg.Server.ClassQuality[n]
			f.str(n)
			f.str(q.Name())
			for _, x := range []float64{1, 10, 100, 500, 1000} {
				f.f64(q.Eval(x))
			}
		}
	}
	// SLO knobs (queue order, class priorities, admission, by-class
	// partitions) are likewise folded only when set, so fingerprints of
	// runs predating the knobs stay stable.
	if cfg.Server.QueueOrder != sim.OrderFCFS {
		f.u64(uint64(cfg.Server.QueueOrder))
	}
	if len(cfg.Server.ClassPriority) > 0 {
		names := make([]string, 0, len(cfg.Server.ClassPriority))
		for n := range cfg.Server.ClassPriority {
			names = append(names, n)
		}
		sort.Strings(names)
		f.u64(uint64(len(names)))
		for _, n := range names {
			f.str(n)
			f.u64(uint64(cfg.Server.ClassPriority[n]))
		}
	}
	if cfg.Server.Admission.Enabled() {
		f.u64(uint64(cfg.Server.Admission.Policy))
		f.u64(uint64(cfg.Server.Admission.MaxQueue))
	}
	if len(cfg.Classes) > 0 {
		f.u64(uint64(len(cfg.Classes)))
		for _, n := range cfg.Classes {
			f.str(n)
		}
	}
	f.u64(uint64(len(cfg.Faults)))
	for _, fs := range cfg.Faults {
		f.u64(uint64(len(fs)))
		for _, ft := range fs {
			f.u64(uint64(ft.Core))
			f.f64(ft.Start)
			f.f64(ft.End)
			f.f64(ft.SpeedFactor)
		}
	}
}

// fnvCluster is a FNV-1a accumulator over the cluster fingerprint fields.
type fnvCluster struct{ h uint64 }

func (f *fnvCluster) init() { f.h = 14695981039346656037 }

func (f *fnvCluster) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h ^= v & 0xff
		f.h *= 1099511628211
		v >>= 8
	}
}

func (f *fnvCluster) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fnvCluster) b(v bool) {
	if v {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fnvCluster) str(s string) {
	f.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		f.h ^= uint64(s[i])
		f.h *= 1099511628211
	}
}

// FingerprintConfig exposes the cluster configuration fingerprint to
// provenance tooling (the run ledger): the same stable FNV-1a hash the
// checkpoint layer uses to refuse resuming under a drifted config, minus
// the workload (hash the spec or trace bytes separately).
func FingerprintConfig(cfg Config) uint64 {
	return fingerprintClusterConfig(cfg)
}
