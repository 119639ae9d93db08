package farmer_test

import (
	"sync"
	"testing"

	"farmer"
)

// openModel opens a miner through the public constructor and returns its
// ensemble — the direct (context-free) mining surface these tests drive.
func openModel(t testing.TB, cfg farmer.Config, opts ...farmer.Option) *farmer.ShardedModel {
	t.Helper()
	m, err := farmer.Open(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.Sharded()
}

func TestPublicAPIQuickstart(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(5000))
	if err != nil {
		t.Fatal(err)
	}
	model := openModel(t, farmer.ConfigFor(tr))
	for i := range tr.Records {
		model.Feed(&tr.Records[i])
	}
	if model.Fed() != 5000 {
		t.Fatalf("fed %d", model.Fed())
	}
	// Some file must have prefetch candidates.
	found := false
	for f := 0; f < tr.FileCount && !found; f++ {
		if len(model.Predict(farmer.FileID(f), 4)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no predictions from a correlated workload")
	}
}

func TestPublicAPIMasks(t *testing.T) {
	m := farmer.MaskOf(farmer.AttrUser, farmer.AttrProcess)
	if !m.Has(farmer.AttrUser) || m.Has(farmer.AttrPath) {
		t.Fatal("mask composition broken")
	}
	cfg := farmer.DefaultConfig()
	cfg.Mask = m
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigForSchema(t *testing.T) {
	hp, _ := farmer.Generate(farmer.HP(100))
	ins, _ := farmer.Generate(farmer.INS(100))
	if !farmer.ConfigFor(hp).Mask.Has(farmer.AttrPath) {
		t.Fatal("HP config should use path attribute")
	}
	if !farmer.ConfigFor(ins).Mask.Has(farmer.AttrFileID) {
		t.Fatal("INS config should use file-id attribute")
	}
}

func TestCorrelatorListExposed(t *testing.T) {
	tr, _ := farmer.Generate(farmer.HP(5000))
	model := openModel(t, farmer.ConfigFor(tr))
	for i := range tr.Records {
		model.Feed(&tr.Records[i])
	}
	var list []farmer.Correlator
	for f := 0; f < tr.FileCount; f++ {
		if l := model.CorrelatorList(farmer.FileID(f)); len(l) > 0 {
			list = l
			break
		}
	}
	if list == nil {
		t.Fatal("no correlator lists")
	}
	for _, c := range list {
		if c.Degree <= 0.4 { // default max_strength
			t.Fatalf("entry below threshold leaked: %+v", c)
		}
	}
}

// TestPublicAPISharded exercises the concurrent miner through the public
// surface: parallel batch ingestion must match the single-lock model's
// predictions exactly.
func TestPublicAPISharded(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(5000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	single := openModel(t, cfg)
	for i := range tr.Records {
		single.Feed(&tr.Records[i])
	}
	sharded := openModel(t, cfg, farmer.WithShards(4))
	sharded.FeedTraceParallel(tr)
	if sharded.Fed() != single.Fed() {
		t.Fatalf("fed %d vs %d", sharded.Fed(), single.Fed())
	}
	for f := 0; f < tr.FileCount; f++ {
		id := farmer.FileID(f)
		want, got := single.Predict(id, 4), sharded.Predict(id, 4)
		if len(want) != len(got) {
			t.Fatalf("file %d: %d vs %d predictions", f, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("file %d: prediction %d is %d, want %d", f, i, got[i], want[i])
			}
		}
	}
}

func TestPublicAPIAsyncPrefetcher(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(4000))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []farmer.PrefetchCandidate
	sink := farmer.PrefetchSinkFunc(func(c farmer.PrefetchCandidate) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
	})
	m, err := farmer.Open(farmer.ConfigFor(tr), farmer.WithShards(4),
		farmer.WithPrefetcher(sink, farmer.PrefetchConfig{K: 4, QueueCap: len(tr.Records)}))
	if err != nil {
		t.Fatal(err)
	}
	model := m.Sharded()
	model.FeedTraceParallel(tr)
	m.Close() // drains the pipeline; the model stays readable

	st := m.Prefetcher().Stats()
	if st.Events != uint64(len(tr.Records)) || st.Dropped != 0 {
		t.Fatalf("pipeline predicted from %d records and dropped %d, want %d and 0",
			st.Events, st.Dropped, len(tr.Records))
	}
	if st.Predicted == 0 || uint64(len(got)) != st.Predicted {
		t.Fatalf("sink saw %d candidates, stats say %d", len(got), st.Predicted)
	}
	// The async pipeline must not have perturbed mining.
	ref := openModel(t, farmer.ConfigFor(tr))
	for i := range tr.Records {
		ref.Feed(&tr.Records[i])
	}
	for f := 0; f < tr.FileCount; f++ {
		id := farmer.FileID(f)
		want, have := ref.Predict(id, 4), model.Predict(id, 4)
		if len(want) != len(have) {
			t.Fatalf("file %d: %d vs %d predictions", f, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("file %d: prediction %d is %d, want %d", f, i, have[i], want[i])
			}
		}
	}
}

// TestPublicAPIClusterMiner drives the partitioned deployment story through
// the public surface alone: an N-server collective miner, merged
// persistence, and a resize to a different server count with identical
// predictions.
func TestPublicAPIClusterMiner(t *testing.T) {
	tr, err := farmer.Generate(farmer.HP(5000))
	if err != nil {
		t.Fatal(err)
	}
	cfg := farmer.ConfigFor(tr)
	cluster := openModel(t, cfg, farmer.WithShards(4))
	if cluster.Shards() != 4 {
		t.Fatalf("servers = %d, want 4", cluster.Shards())
	}
	cluster.FeedTraceParallel(tr)

	// Each server's partition holds exactly the files the deployment routes
	// to it.
	for f := 0; f < tr.FileCount; f++ {
		id := farmer.FileID(f)
		own := cluster.Partitioner()(id, 4)
		if want, got := cluster.Predict(id, 4), cluster.Shard(own).Predict(id, 4); len(want) != len(got) {
			t.Fatalf("file %d: owner shard disagrees with ensemble", f)
		}
	}

	st, err := farmer.OpenStore("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := cluster.SaveMerged(st); err != nil {
		t.Fatal(err)
	}
	resized := openModel(t, cfg, farmer.WithShards(7))
	if err := resized.LoadMerged(st); err != nil {
		t.Fatal(err)
	}
	if resized.Fed() != cluster.Fed() {
		t.Fatalf("fed %d vs %d after resize", resized.Fed(), cluster.Fed())
	}
	for f := 0; f < tr.FileCount; f++ {
		id := farmer.FileID(f)
		want, got := cluster.Predict(id, 4), resized.Predict(id, 4)
		if len(want) != len(got) {
			t.Fatalf("file %d: %d vs %d predictions after resize", f, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("file %d: prediction %d is %d, want %d", f, i, got[i], want[i])
			}
		}
	}
}
