package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestShardBenchSmoke(t *testing.T) {
	r := testRunner()
	bp := ShardBenchParams{
		Shards: []int{2, 4}, Window: 2, Trials: 1,
		MixedWriters: 2, MixedWrites: 20, MixedReaders: 2, MixedReads: 3,
	}
	b, err := r.ShardBench(bp)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Points) != 3 {
		t.Fatalf("got %d points, want baseline + 2", len(b.Points))
	}
	if b.Points[0].Shards != 1 {
		t.Fatalf("first point shards=%d, want the one-partition baseline", b.Points[0].Shards)
	}
	for _, p := range b.Points {
		if p.SnapshotNanos <= 0 || p.IntervalNanos <= 0 || p.MixedNanos <= 0 {
			t.Errorf("shards=%d: wall times %d/%d/%d, want all > 0",
				p.Shards, p.SnapshotNanos, p.IntervalNanos, p.MixedNanos)
		}
		if p.SnapshotSpeedup <= 0 || p.IntervalSpeedup <= 0 || p.MixedSpeedup <= 0 {
			t.Errorf("shards=%d: speedups missing", p.Shards)
		}
	}
	if b.NumCPU <= 0 || b.GOMAXPROCS <= 0 {
		t.Error("host facts missing from the record")
	}

	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round ShardBench
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("recorded JSON does not round-trip: %v", err)
	}
	if round.Kind != "shard" || len(round.Points) != len(b.Points) {
		t.Fatalf("round-trip mismatch: %+v", round)
	}
	if err := PrintShard(&buf, b); err != nil {
		t.Fatal(err)
	}
}
