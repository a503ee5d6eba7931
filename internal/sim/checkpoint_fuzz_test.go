package sim_test

import (
	"errors"
	"testing"

	"dessched/internal/cfgerr"
	"dessched/internal/core"
	"dessched/internal/sim"
)

// FuzzDecodeSnapshot pins the decoder's contract: arbitrary bytes —
// corrupt JSON, truncated snapshots, hostile index values — either decode
// to a structurally valid snapshot or fail with a typed *cfgerr.Error.
// Never a panic.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a real snapshot so mutations explore the interesting
	// neighborhood of the format.
	sc := checkpointScenarios()[1]
	cfg, _, bursts := sc.build(f)
	jobs := sc.stream(f, bursts)
	var valid []byte
	ck := cfg
	ck.Checkpoint = &sim.CheckpointConfig{
		Every: 0.3,
		Sink: func(s *sim.Snapshot) error {
			if valid == nil {
				b, err := sim.EncodeSnapshot(s)
				if err != nil {
					return err
				}
				valid = b
			}
			return nil
		},
	}
	if _, err := sim.Run(ck, jobs, core.New(core.CDVFS)); err != nil {
		f.Fatal(err)
	}
	if valid == nil {
		f.Fatal("no snapshot captured for the seed corpus")
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1"}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{}],"queue":[99]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{"plan_cursor":-1}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v1","cores":[{}],"events":[{"kind":250}]}`))
	f.Add(valid[:len(valid)/2])
	// v2 shapes: static runs and per-core boundaries with hostile values.
	f.Add([]byte(`{"version":"dessched-checkpoint/v2","cores":[{}],"arrivals":[{"t":1,"seq":0,"job":7}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v2","jobs":[{"core":-1}],"cores":[{}],"deadlines":[{"t":1,"seq":1,"job":-1}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v2","cores":[{"seq_base":4,"plan":[{"end":1}]}],"events":[{"kind":2,"seq":9,"core":0,"job":-1}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v2","cores":[{"plan":[{"end":1}]}],"events":[{"kind":2,"core":0,"job":-1},{"kind":2,"core":0,"job":-1}]}`))
	f.Add([]byte(`{"version":"dessched-checkpoint/v2","jobs":[{"core":-1}],"cores":[{}],"events":[{"kind":0,"job":0,"core":-1}]}`))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := sim.DecodeSnapshot(b)
		if err != nil {
			var ce *cfgerr.Error
			if !errors.As(err, &ce) {
				t.Fatalf("decode error is %T (%v), want *cfgerr.Error", err, err)
			}
			return
		}
		// A snapshot that decodes must re-encode.
		if _, err := sim.EncodeSnapshot(s); err != nil {
			t.Fatalf("decoded snapshot fails to re-encode: %v", err)
		}
	})
}
