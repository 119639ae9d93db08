package farmer_test

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"farmer"
)

// TestOpenInvalidConfig: every invalid configuration or option must come
// back as an error — never a panic — with a message naming the offender.
func TestOpenInvalidConfig(t *testing.T) {
	valid := farmer.DefaultConfig()
	cases := []struct {
		name string
		cfg  func() farmer.Config
		opts []farmer.Option
		want string
	}{
		{
			name: "negative weight",
			cfg:  func() farmer.Config { c := valid; c.Weight = -0.1; return c },
			want: "weight",
		},
		{
			name: "weight above one",
			cfg:  func() farmer.Config { c := valid; c.Weight = 1.5; return c },
			want: "weight",
		},
		{
			name: "NaN weight",
			cfg:  func() farmer.Config { c := valid; c.Weight = math.NaN(); return c },
			want: "weight",
		},
		{
			name: "negative max_strength",
			cfg:  func() farmer.Config { c := valid; c.MaxStrength = -1; return c },
			want: "max_strength",
		},
		{
			name: "max_strength above one",
			cfg:  func() farmer.Config { c := valid; c.MaxStrength = 2; return c },
			want: "max_strength",
		},
		{
			name: "NaN max_strength",
			cfg:  func() farmer.Config { c := valid; c.MaxStrength = math.NaN(); return c },
			want: "max_strength",
		},
		{
			name: "negative correlator bound",
			cfg:  func() farmer.Config { c := valid; c.MaxCorrelators = -4; return c },
			want: "MaxCorrelators",
		},
		{
			name: "negative shards in config",
			cfg:  func() farmer.Config { c := valid; c.Shards = -2; return c },
			want: "Shards",
		},
		{
			name: "negative shards option",
			cfg:  func() farmer.Config { return valid },
			opts: []farmer.Option{farmer.WithShards(-1)},
			want: "WithShards",
		},
		{
			name: "empty store path",
			cfg:  func() farmer.Config { return valid },
			opts: []farmer.Option{farmer.WithStore("")},
			want: "WithStore",
		},
		{
			name: "negative prefetch degree",
			cfg:  func() farmer.Config { return valid },
			opts: []farmer.Option{farmer.WithPrefetcher(nil, farmer.PrefetchConfig{K: -1})},
			want: "WithPrefetcher",
		},
		{
			name: "load without store",
			cfg:  func() farmer.Config { return valid },
			opts: []farmer.Option{farmer.WithLoad()},
			want: "WithStore",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := farmer.Open(tc.cfg(), tc.opts...)
			if err == nil {
				m.Close()
				t.Fatal("Open accepted an invalid configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

// TestOpenEquivalentToNewSharded: WithShards must build the same miner
// Config.Shards does — bit-identical mined state.
func TestOpenEquivalentToNewSharded(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(3000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	cfg.Shards = 4
	old := openModel(t, cfg)
	old.FeedTraceParallel(tr)

	m, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < tr.FileCount; f++ {
		if !reflect.DeepEqual(old.CorrelatorList(farmer.FileID(f)), m.CorrelatorList(farmer.FileID(f))) {
			t.Fatalf("file %d: Open-built miner diverged from the Config.Shards one", f)
		}
	}
}

// TestMinerSaveLoadRoundTrip drives persistence through the Miner
// interface: save, reopen at a different shard count, load, compare.
func TestMinerSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "miner.wal")
	tr, err := farmer.Generate(farmer.INS(2000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	ctx := context.Background()

	m1, err := farmer.Open(cfg, farmer.WithShards(3), farmer.WithStore(wal))
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.FeedBatch(ctx, tr.Records); err != nil {
		t.Fatal(err)
	}
	if err := m1.Save(ctx); err != nil {
		t.Fatal(err)
	}
	want := make(map[int][]farmer.Correlator)
	for f := 0; f < tr.FileCount; f++ {
		want[f] = m1.CorrelatorList(farmer.FileID(f))
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen at a different stripe count with WithLoad: the load rebalances.
	m2, err := farmer.Open(cfg, farmer.WithShards(5), farmer.WithStore(wal), farmer.WithLoad())
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for f := 0; f < tr.FileCount; f++ {
		if !reflect.DeepEqual(want[f], m2.CorrelatorList(farmer.FileID(f))) {
			t.Fatalf("file %d: reloaded state differs", f)
		}
	}
	st, err := m2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fed != uint64(len(tr.Records)) {
		t.Fatalf("reloaded fed %d, want %d", st.Fed, len(tr.Records))
	}
}

// TestMinerSaveWithoutStore: Save/Load on a storeless miner must fail with
// ErrNoStore, not panic.
func TestMinerSaveWithoutStore(t *testing.T) {
	m, err := farmer.Open(farmer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Save(context.Background()); !errors.Is(err, farmer.ErrNoStore) {
		t.Fatalf("Save without store: %v", err)
	}
	if err := m.Load(context.Background()); !errors.Is(err, farmer.ErrNoStore) {
		t.Fatalf("Load without store: %v", err)
	}
}

// TestOpenCorruptStore: a truncated and a bit-flipped WAL must fail Open
// with an error (never panic, never silently half-load), and RepairStore
// must make the store loadable again.
func TestOpenCorruptStore(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)-5] }},
		{"bit-flipped", func(d []byte) []byte { d[len(d)/2] ^= 0x40; return d }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			wal := filepath.Join(dir, "miner.wal")
			tr, err := farmer.Generate(farmer.INS(1500))
			if err != nil {
				t.Fatal(err)
			}
			cfg := farmer.ConfigFor(tr)
			ctx := context.Background()
			m, err := farmer.Open(cfg, farmer.WithShards(2), farmer.WithStore(wal))
			if err != nil {
				t.Fatal(err)
			}
			if err := m.FeedBatch(ctx, tr.Records); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(ctx); err != nil {
				t.Fatal(err)
			}
			m.Close()

			data, err := os.ReadFile(wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(wal, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := farmer.OpenStore(wal); err == nil {
				t.Fatal("OpenStore accepted a corrupt WAL")
			}
			if _, err := farmer.Open(cfg, farmer.WithStore(wal), farmer.WithLoad()); err == nil {
				t.Fatal("Open(WithLoad) accepted a corrupt WAL")
			}
			if _, _, err := farmer.RepairStore(wal); err != nil {
				t.Fatal(err)
			}
			// Repair makes the store openable again. The mined state may be
			// gone (the repair cut everything after the corruption, and the
			// model's config record is written last), so a load either
			// succeeds or reports a clean error — never a panic or a silent
			// half-load.
			st, err := farmer.OpenStore(wal)
			if err != nil {
				t.Fatalf("OpenStore after repair: %v", err)
			}
			st.Close()
			if m2, err := farmer.Open(cfg, farmer.WithStore(wal), farmer.WithLoad()); err == nil {
				m2.Close()
			}
		})
	}
}

// TestOpenWithPrefetcher: the pipeline attached at Open must see ingestion
// and drain on Close.
func TestOpenWithPrefetcher(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(2000))
	if err != nil {
		t.Fatal(err)
	}
	var got []farmer.PrefetchCandidate
	sink := farmer.PrefetchSinkFunc(func(c farmer.PrefetchCandidate) { got = append(got, c) })
	m, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(2),
		farmer.WithPrefetcher(sink, farmer.PrefetchConfig{K: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.FeedBatch(context.Background(), tr.Records); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Prefetcher().Stats()
	if st.Events == 0 || st.Predicted == 0 {
		t.Fatalf("pipeline saw no traffic: %+v", st)
	}
	if uint64(len(got)) != st.Submitted {
		t.Fatalf("sink got %d candidates, pipeline submitted %d", len(got), st.Submitted)
	}
}

func TestPartitionerByName(t *testing.T) {
	for _, name := range []string{"stripe", "hash", "group"} {
		p, err := farmer.PartitionerByName(name)
		if err != nil || p == nil {
			t.Fatalf("%s: (%v, %v)", name, p, err)
		}
	}
	if _, err := farmer.PartitionerByName("bogus"); err == nil {
		t.Fatal("unknown partitioner accepted")
	}
}
