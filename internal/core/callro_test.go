package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/stats"
)

// TestCallROUncachedBatchBehavesLikeCall: on a core batch CallRO is an
// ordinary recorded call — same wire traffic, same results. (The lease cache
// is a cluster batch's; see internal/cluster/cache_test.go.)
func TestCallROUncachedBatchBehavesLikeCall(t *testing.T) {
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	if err := server.Serve("server"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	exec, err := core.Install(server)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Stop)
	reg := stats.New()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf), rmi.WithStatsRegistry(reg))
	t.Cleanup(func() { _ = client.Close() })

	dir := &directory{}
	dir.files = append(dir.files, &file{dir: dir, name: "a.txt", size: 1, date: baseDate(1)})
	dir.files = append(dir.files, &file{dir: dir, name: "b.txt", size: 2, date: baseDate(2)})
	dirRef, err := server.Export(dir, "coretest.Directory")
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	type traffic struct{ frames, bytes int64 }
	read := func(ro bool) ([]any, traffic) {
		t.Helper()
		before := reg.Snapshot()
		b := core.New(client, dirRef)
		record := b.Root().Call
		if ro {
			record = b.Root().CallRO
		}
		fut := record("Names")
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		v, err := fut.Get()
		if err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot()
		return v.([]any), traffic{
			frames: after.Counter("transport.frames_out") - before.Counter("transport.frames_out"),
			bytes:  after.Counter("transport.bytes_out") - before.Counter("transport.bytes_out"),
		}
	}
	plain, plainT := read(false)
	for i := 0; i < 2; i++ {
		got, gotT := read(true)
		if len(got) != 2 || got[0] != plain[0] || got[1] != plain[1] {
			t.Fatalf("round %d: CallRO read %v, Call read %v", i, got, plain)
		}
		if gotT != plainT {
			t.Fatalf("round %d: CallRO traffic %+v, Call traffic %+v", i, gotT, plainT)
		}
	}
}
