package cluster

import (
	"encoding/json"
	"sort"

	"dessched/internal/cfgerr"
	"dessched/internal/job"
	"dessched/internal/mix"
	"dessched/internal/sim"
)

// StreamSnapshotKind discriminates a cluster snapshot inside the shared
// versioned envelope (sim.SnapshotVersion).
const StreamSnapshotKind = "cluster-stream"

// StreamCheckpointConfig enables epoch-boundary checkpointing of a cluster
// run: after every Every completed dispatch epochs the Sink receives a
// StreamSnapshot of the whole fleet's in-flight state.
// ResumeStream continues from a snapshot by replaying the already-consumed
// arrival prefix through the (cheap, engine-free) ingest stage to rebuild
// the coordinator, then restoring every server engine.
type StreamCheckpointConfig struct {
	// Every is the checkpoint cadence in dispatch epochs (required > 0).
	Every int

	// Sink receives each snapshot. An error aborts the run (the crash
	// model) and is returned from Run or RunStream.
	Sink func(*StreamSnapshot) error
}

// Validate reports configuration errors as typed *cfgerr.Error values.
func (c *StreamCheckpointConfig) Validate() error {
	if c.Every <= 0 {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint cadence must be positive epochs, got %d", c.Every)
	}
	if c.Sink == nil {
		return cfgerr.New("cluster", "stream_checkpoint", "cluster: stream checkpoint needs a sink")
	}
	return nil
}

// StreamSnapshot is a resumable image of a cluster run at a
// dispatch-epoch boundary. The coordinator's routing, hedging, and budget
// state are deterministic recomputations from the arrival prefix, so they
// are not stored: the config fingerprint pins the configuration, and
// (JobsFed, JobsHash) pin the prefix — ResumeStream replays it from the
// source and verifies both. Only the per-server engine states and the
// already-departed hedge replica outcomes are carried.
type StreamSnapshot struct {
	Version     string `json:"version"`
	Kind        string `json:"kind"`
	Fingerprint uint64 `json:"fingerprint"` // fingerprintClusterConfig (no workload)
	Servers     int    `json:"servers"`
	Epoch       int    `json:"epoch"`     // completed dispatch epochs
	JobsFed     int    `json:"jobs_fed"`  // arrivals consumed from the source
	JobsHash    uint64 `json:"jobs_hash"` // rolling FNV over the consumed arrivals

	// Captured holds, per server, the hedged replica outcomes that already
	// departed (sorted by job ID); replicas still in flight are re-captured
	// after resume. Only Quality, DepartAt, and Reason are meaningful.
	Captured [][]sim.JobOutcome `json:"captured,omitempty"`

	// PerServer is each server engine's streamed sim snapshot.
	PerServer []*sim.Snapshot `json:"per_server"`
}

// EncodeStreamSnapshot serializes a cluster snapshot. JSON
// round-trips float64 exactly, so a decoded snapshot resumes
// bit-identically.
func EncodeStreamSnapshot(s *StreamSnapshot) ([]byte, error) {
	if s == nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: nil snapshot")
	}
	b, err := json.Marshal(s)
	if err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: encode snapshot: %v", err)
	}
	return b, nil
}

// DecodeStreamSnapshot parses and structurally validates a cluster
// snapshot. Malformed input yields a typed *cfgerr.Error, never a panic.
func DecodeStreamSnapshot(b []byte) (*StreamSnapshot, error) {
	var s StreamSnapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, cfgerr.New("cluster", "snapshot", "cluster: decode snapshot: %v", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *StreamSnapshot) validate() error {
	if s.Version != sim.SnapshotVersion {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot version %q, want %q", s.Version, sim.SnapshotVersion)
	}
	if s.Kind != StreamSnapshotKind {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot kind %q, want %q", s.Kind, StreamSnapshotKind)
	}
	if s.Servers <= 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot has %d servers", s.Servers)
	}
	if s.Epoch < 0 {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot at negative epoch %d", s.Epoch)
	}
	if len(s.PerServer) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds %d engine states for %d servers", len(s.PerServer), s.Servers)
	}
	for i, ps := range s.PerServer {
		if ps == nil {
			return cfgerr.New("cluster", "snapshot", "cluster: snapshot engine state for server %d is missing", i)
		}
	}
	if len(s.Captured) != 0 && len(s.Captured) != s.Servers {
		return cfgerr.New("cluster", "snapshot", "cluster: snapshot holds captured outcomes for %d servers, want 0 or %d", len(s.Captured), s.Servers)
	}
	return nil
}

// ResumeStream continues a checkpointed cluster run: the consumed arrival
// prefix is replayed from src through the ingest stage (no engine work) to
// rebuild the coordinator, verified against the snapshot's rolling hash,
// and every server engine is restored in place. The configuration and the
// source must be those of the original run — job.NewSliceSource over the
// original jobs for a run started with Run.
func ResumeStream(cfg Config, src job.Source, snap *StreamSnapshot) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if src == nil {
		return Result{}, cfgerr.New("cluster", "source", "cluster: nil job source")
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
	if got, want := fingerprintClusterConfig(cfg), snap.Fingerprint; got != want {
		return Result{}, cfgerr.New("cluster", "snapshot",
			"cluster: snapshot fingerprint %#x does not match the configuration (%#x) — config, policy, faults, or budget knobs changed", want, got)
	}
	return run(cfg, src, snap)
}

// fingerprintClusterConfig is the configuration-only fingerprint pinned
// by snapshots: the workload cannot be hashed up front (it is pulled
// lazily), so snapshots verify the arrival prefix separately with a
// rolling hash (StreamSnapshot.JobsHash).
func fingerprintClusterConfig(cfg Config) uint64 {
	f := fnvCluster{mix.NewFNV()}
	hashClusterConfig(&f, cfg)
	return f.Sum
}

// fnvCluster folds typed fields into a shared FNV-1a accumulator. Strings
// hash their length, then their bytes — the order stored fingerprints fix.
type fnvCluster struct{ mix.FNV }

func (f *fnvCluster) str(s string) {
	f.U64(uint64(len(s)))
	f.Bytes(s)
}

// hashClusterConfig folds every configuration field the dispatch, hedging,
// and budget stages depend on into the accumulator.
func hashClusterConfig(f *fnvCluster, cfg Config) {
	f.U64(uint64(cfg.Servers))
	f.U64(uint64(cfg.Dispatch))
	f.F64(cfg.GlobalBudget)
	f.F64(cfg.Epoch)
	f.F64(cfg.Headroom)
	name := "custom"
	if cfg.NewPolicy == nil {
		if spec, err := ParsePolicy(cfg.Policy); err == nil {
			name = spec.Name
		}
	}
	f.str(name)
	f.U64(uint64(cfg.Server.Cores))
	f.F64(cfg.Server.Budget)
	f.F64(cfg.Server.MaxSpeed)
	f.F64(cfg.Server.Retry.Backoff)
	f.F64(cfg.Server.Retry.Multiplier)
	f.F64(cfg.Server.Retry.MaxBackoff)
	f.F64(cfg.Server.Retry.DeadlineSlack)
	f.U64(uint64(cfg.Server.Retry.MaxAttempts))
	f.F64(cfg.Hedge.Window)
	f.U64(uint64(cfg.Hedge.Limit))
	if cfg.Server.Quality != nil {
		f.str(cfg.Server.Quality.Name())
		for _, x := range []float64{1, 10, 100, 500, 1000} {
			f.F64(cfg.Server.Quality.Eval(x))
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
		f.U64(uint64(len(names)))
		for _, n := range names {
			q := cfg.Server.ClassQuality[n]
			f.str(n)
			f.str(q.Name())
			for _, x := range []float64{1, 10, 100, 500, 1000} {
				f.F64(q.Eval(x))
			}
		}
	}
	// SLO knobs (queue order, class priorities, admission, by-class
	// partitions) are likewise folded only when set, so fingerprints of
	// runs predating the knobs stay stable.
	if cfg.Server.QueueOrder != sim.OrderFCFS {
		f.U64(uint64(cfg.Server.QueueOrder))
	}
	if len(cfg.Server.ClassPriority) > 0 {
		names := make([]string, 0, len(cfg.Server.ClassPriority))
		for n := range cfg.Server.ClassPriority {
			names = append(names, n)
		}
		sort.Strings(names)
		f.U64(uint64(len(names)))
		for _, n := range names {
			f.str(n)
			f.U64(uint64(cfg.Server.ClassPriority[n]))
		}
	}
	if cfg.Server.Admission.Enabled() {
		f.U64(uint64(cfg.Server.Admission.Policy))
		f.U64(uint64(cfg.Server.Admission.MaxQueue))
	}
	if len(cfg.Classes) > 0 {
		f.U64(uint64(len(cfg.Classes)))
		for _, n := range cfg.Classes {
			f.str(n)
		}
	}
	f.U64(uint64(len(cfg.Faults)))
	for _, fs := range cfg.Faults {
		f.U64(uint64(len(fs)))
		for _, ft := range fs {
			f.U64(uint64(ft.Core))
			f.F64(ft.Start)
			f.F64(ft.End)
			f.F64(ft.SpeedFactor)
		}
	}
}

// FingerprintConfig exposes the cluster configuration fingerprint to
// provenance tooling (the run ledger): the same stable FNV-1a hash the
// checkpoint layer uses to refuse resuming under a drifted config, minus
// the workload (hash the spec or trace bytes separately).
func FingerprintConfig(cfg Config) uint64 {
	return fingerprintClusterConfig(cfg)
}
