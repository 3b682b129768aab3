package cluster_test

// End-to-end tests for the streaming cluster GetBatch: one stream request
// per destination server, strict request-order delivery at the assembler,
// per-name error isolation, and reroutes.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/clustertest"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
)

// drainInOrder reads a whole GetBatch of Get() values and fails unless the
// entries arrive in exact request order, error-free, with want's values.
func drainInOrder(t *testing.T, s *cluster.Stream, names []string, want map[string]int64) {
	t.Helper()
	for i, name := range names {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		if e.Index != i || e.Name != name {
			t.Fatalf("entry %d = {Index: %d, Name: %q}, want {%d, %q}: delivery out of request order", i, e.Index, e.Name, i, name)
		}
		if e.Err != nil {
			t.Fatalf("entry %d (%s): %v", i, name, e.Err)
		}
		if v, ok := e.Value.(int64); !ok || v != want[name] {
			t.Fatalf("entry %d (%s) = %v (%T), want %d", i, name, e.Value, e.Value, want[name])
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after last entry: %v, want io.EOF", err)
	}
}

// TestGetBatchOrderedOnePerDestination is the acceptance-criteria test: a
// 64-object GetBatch over a 4-server cluster completes as exactly ONE
// core.getbatch request per destination, and the client sees every entry in
// exact request order with the right value.
func TestGetBatchOrderedOnePerDestination(t *testing.T) {
	ec := clustertest.New(t, 4)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())

	const n = 64
	names := make([]string, n)
	seeds := make(map[string]int64, n)
	homes := make(map[string]int) // names per member
	for i := range names {
		names[i] = fmt.Sprintf("obj-%02d", i)
		seeds[names[i]] = 1000 + int64(i)
		ec.BindCounter(dir, names[i], seeds[names[i]])
		home, err := dir.Home(names[i])
		if err != nil {
			t.Fatal(err)
		}
		homes[home]++
	}
	if len(homes) < 2 {
		t.Fatalf("all %d names landed on one member; hash gone degenerate", n)
	}

	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; ; i++ {
		e, err := s.Next()
		if err == io.EOF {
			if i != n {
				t.Fatalf("stream ended after %d entries, want %d", i, n)
			}
			break
		}
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		if e.Index != i || e.Name != names[i] {
			t.Fatalf("entry %d = {Index: %d, Name: %q}, want {%d, %q}: delivery out of request order", i, e.Index, e.Name, i, names[i])
		}
		if e.Err != nil {
			t.Fatalf("entry %d (%s): %v", i, e.Name, e.Err)
		}
		if v, ok := e.Value.(int64); !ok || v != seeds[e.Name] {
			t.Fatalf("entry %d (%s) = %v (%T), want %d", i, e.Name, e.Value, e.Value, seeds[e.Name])
		}
	}

	// ONE stream request per destination: each member holding names served
	// exactly one batch, and its entry count matches its share.
	for _, srv := range ec.Servers {
		snap := srv.Stats.Snapshot()
		wantBatches := int64(0)
		if homes[srv.Endpoint] > 0 {
			wantBatches = 1
		}
		if got := snap.Counter("core.getbatch_batches"); got != wantBatches {
			t.Errorf("%s served %d getbatch batches, want %d", srv.Endpoint, got, wantBatches)
		}
		if got := snap.Counter("core.getbatch_entries"); got != int64(homes[srv.Endpoint]) {
			t.Errorf("%s streamed %d entries, want %d", srv.Endpoint, got, homes[srv.Endpoint])
		}
	}
}

// TestGetBatchSnapshotDefault reads through the Movable snapshot path (no
// accessor method): values arrive as the object's migration snapshot.
func TestGetBatchSnapshotDefault(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := []string{"snap-a", "snap-b", "snap-c"}
	for i, name := range names {
		ec.BindCounter(dir, name, int64(10*(i+1)))
	}

	s, err := cluster.GetBatch(ctx, ec.Client, dir, names)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < len(names); i++ {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		if e.Err != nil {
			t.Fatalf("entry %d (%s): %v", i, e.Name, e.Err)
		}
		st, ok := e.Value.(*clustertest.CounterState)
		if !ok {
			t.Fatalf("entry %d value = %T, want *CounterState", i, e.Value)
		}
		if st.N != int64(10*(i+1)) {
			t.Fatalf("entry %d snapshot N = %d, want %d", i, st.N, 10*(i+1))
		}
	}
	if _, err := s.Next(); err != io.EOF {
		t.Fatalf("after last entry: %v, want io.EOF", err)
	}
}

// TestGetBatchUnknownNameFailsOnlyThatEntry: a name the directory cannot
// resolve surfaces as that entry's Err; every other entry still delivers.
func TestGetBatchUnknownNameFailsOnlyThatEntry(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	ec.BindCounter(dir, "known-a", 1)
	ec.BindCounter(dir, "known-b", 2)
	names := []string{"known-a", "ghost", "known-b"}

	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got [3]*cluster.StreamEntry
	for i := range got {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		got[e.Index] = e
	}
	if got[0].Err != nil || got[0].Value.(int64) != 1 {
		t.Errorf("known-a = %v, %v; want 1", got[0].Value, got[0].Err)
	}
	if got[1].Err == nil {
		t.Errorf("ghost resolved to %v; want a lookup error", got[1].Value)
	}
	if got[2].Err != nil || got[2].Value.(int64) != 2 {
		t.Errorf("known-b = %v, %v; want 2", got[2].Value, got[2].Err)
	}
}

// TestGetBatchCloseUnblocks: Close on a part-drained stream cancels the
// in-flight destinations and later Next calls fail fast.
func TestGetBatchCloseUnblocks(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("c-%d", i)
		ec.BindCounter(dir, names[i], int64(i))
	}
	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Next()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rmi.ErrClosed) {
			t.Fatalf("Next after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next after Close blocked")
	}
}

// bindLocal exports a fresh Counter at name's home and binds it in that
// member's registry directly — no network, so tests on slow simulated links
// set up in no time.
func bindLocal(t *testing.T, ec *clustertest.Cluster, dir *cluster.Directory, name string, seed int64) {
	t.Helper()
	home, err := dir.Home(name)
	if err != nil {
		t.Fatal(err)
	}
	srv := ec.Server(home)
	ref, err := srv.Peer.Export(clustertest.NewCounter(seed), clustertest.CounterIface)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reg.Bind(name, ref); err != nil {
		t.Fatal(err)
	}
}

// TestGetBatchRoundTripsEqualDistinctHomes pins the cost model: reading N
// names costs one round trip per DISTINCT HOME — 1 at N=1, at most the
// cluster size at any N — because the names ride the stream request and the
// homes resolve them. GetBatch itself returns without waiting on the
// network: on a link with an 80 ms round trip it is back in a fraction of
// one, where a client-side resolve pass would hold it for a whole one. (A
// CallCount read right after the return would race the stream goroutines it
// just started; elapsed time on a slow link is the observable.)
//
// A replicated ring (R=2) changes nothing: every name is still read at its
// home, the primary, and every remote call the read makes is a home's
// stream — none is left over for a Replica method.
func TestGetBatchRoundTripsEqualDistinctHomes(t *testing.T) {
	network := netsim.New(netsim.WAN)
	t.Cleanup(func() { _ = network.Close() })
	ec := clustertest.New(t, 4, clustertest.WithNetwork(network))
	ctx := context.Background()
	served := func() (batches int64, entries map[string]int64) {
		entries = make(map[string]int64, len(ec.Servers))
		for _, srv := range ec.Servers {
			snap := srv.Stats.Snapshot()
			batches += snap.Counter("core.getbatch_batches")
			entries[srv.Endpoint] = snap.Counter("core.getbatch_entries")
		}
		return batches, entries
	}

	for _, r := range []int{1, 2} {
		dir := cluster.NewDirectory(ec.Client, ec.Endpoints(), cluster.WithReplication(r))
		for _, n := range []int{1, 8, 64} {
			names := make([]string, n)
			want := make(map[string]int64, n)
			homes := map[string]int64{} // names per home
			for i := range names {
				names[i] = fmt.Sprintf("rt-r%d-%d-%d", r, n, i)
				want[names[i]] = int64(n*100 + i)
				bindLocal(t, ec, dir, names[i], want[names[i]])
				home, _ := dir.Home(names[i])
				homes[home]++
			}

			before := ec.Client.CallCount()
			batchesBefore, entriesBefore := served()
			start := time.Now()
			s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
			if err != nil {
				t.Fatal(err)
			}
			if open := time.Since(start); open > netsim.WAN.RTT/4 {
				t.Errorf("R=%d N=%d: GetBatch took %v to return on a %v-RTT link; it must not wait on the network", r, n, open, netsim.WAN.RTT)
			}
			drainInOrder(t, s, names, want)
			s.Close()
			calls := ec.Client.CallCount() - before
			if calls != uint64(len(homes)) {
				t.Errorf("R=%d N=%d: GetBatch cost %d round trips, want %d (one per distinct home)", r, n, calls, len(homes))
			}
			batches, entries := served()
			if streams := uint64(batches - batchesBefore); streams != calls {
				t.Errorf("R=%d N=%d: %d remote calls but %d home streams; the rest went to no home", r, n, calls, streams)
			}
			for _, srv := range ec.Servers {
				if got := entries[srv.Endpoint] - entriesBefore[srv.Endpoint]; got != homes[srv.Endpoint] {
					t.Errorf("R=%d N=%d: %s read %d entries, want %d (the names it is home to)", r, n, srv.Endpoint, got, homes[srv.Endpoint])
				}
			}
		}
	}
}

// TestGetBatchSecondHop: a name bound at its home to an object exported on
// a DIFFERENT server is read there, id-addressed, in one second-hop stream
// — and only that name pays the hop.
func TestGetBatchSecondHop(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())

	// Three names sharing one home; the middle one's object lives elsewhere.
	home := ec.Endpoints()[0]
	away := ec.Server(ec.Endpoints()[1])
	var names []string
	for i := 0; len(names) < 3; i++ {
		if name := fmt.Sprintf("hop-%d", i); dir.Ring().Route(name) == home {
			names = append(names, name)
		}
	}
	want := map[string]int64{names[0]: 11, names[1]: 22, names[2]: 33}
	ec.BindCounter(dir, names[0], 11)
	ec.BindCounter(dir, names[2], 33)
	farRef, err := away.Peer.Export(clustertest.NewCounter(22), clustertest.CounterIface)
	if err != nil {
		t.Fatal(err)
	}
	if err := dir.Bind(ctx, names[1], farRef); err != nil {
		t.Fatal(err)
	}

	before := ec.Client.CallCount()
	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainInOrder(t, s, names, want)

	if got := ec.Client.CallCount() - before; got != 2 {
		t.Errorf("GetBatch cost %d round trips, want 2 (the home's stream + one second hop)", got)
	}
	for _, c := range []struct {
		srv              *clustertest.Server
		batches, entries int64
	}{
		{ec.Server(home), 1, 3}, // all three asked by name; one answered "elsewhere"
		{away, 1, 1},            // only the far name hops
		{ec.Server(ec.Endpoints()[2]), 0, 0},
	} {
		snap := c.srv.Stats.Snapshot()
		if b, e := snap.Counter("core.getbatch_batches"), snap.Counter("core.getbatch_entries"); b != c.batches || e != c.entries {
			t.Errorf("%s served %d batches / %d entries, want %d / %d", c.srv.Endpoint, b, e, c.batches, c.entries)
		}
	}
}

// TestGetBatchStaleDirectoryRetriesOnce: names that migrated after the
// directory last saw the ring come back as wrong-home entries from their
// old homes; the stream refreshes the ring ONCE, re-issues exactly those
// positions by name at the new home, and still delivers in request order.
func TestGetBatchStaleDirectoryRetriesOnce(t *testing.T) {
	ec := clustertest.New(t, 3)
	ctx := context.Background()
	base := []string{"server-0", "server-1"}
	admin := cluster.NewDirectory(ec.Client, base)
	stale := cluster.NewDirectory(ec.Client, base)
	grown := cluster.NewRing([]string{"server-0", "server-1", "server-2"})

	// Movers from BOTH old homes (two wrong-home streams, still one
	// refresh) interleaved with names that stay put.
	move0 := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-2", 2)
	move1 := clustertest.PickNames(admin.Ring(), grown, "server-1", "server-2", 1)
	stay0 := clustertest.PickNames(admin.Ring(), grown, "server-0", "server-0", 1)
	stay1 := clustertest.PickNames(admin.Ring(), grown, "server-1", "server-1", 1)
	names := []string{move0[0], stay0[0], move1[0], stay1[0], move0[1]}
	want := make(map[string]int64, len(names))
	for i, name := range names {
		want[name] = int64(70 + i)
		ec.BindCounter(admin, name, want[name])
	}
	if _, err := cluster.NewRebalancer(admin).AddServer(ctx, "server-2"); err != nil {
		t.Fatal(err)
	}

	counter := func(name string) int64 { return clientCounter(ec, name) }
	retries, refreshes := counter("cluster.lookup_retries"), counter("cluster.dir_refreshes")
	s, err := cluster.GetBatch(ctx, ec.Client, stale, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	drainInOrder(t, s, names, want)

	if got := counter("cluster.lookup_retries") - retries; got != 1 {
		t.Errorf("cluster.lookup_retries moved by %d, want 1", got)
	}
	if got := counter("cluster.dir_refreshes") - refreshes; got != 1 {
		t.Errorf("cluster.dir_refreshes moved by %d, want exactly one refresh", got)
	}
	if e := stale.Epoch(); e != 1 {
		t.Errorf("stale directory epoch after the read = %d, want 1", e)
	}
	// The newcomer served the three movers in ONE re-issued stream.
	snap := ec.Server("server-2").Stats.Snapshot()
	if b, e := snap.Counter("core.getbatch_batches"), snap.Counter("core.getbatch_entries"); b != 1 || e != 3 {
		t.Errorf("server-2 served %d batches / %d entries, want 1 / 3", b, e)
	}
}

// TestGetBatchMissNamesHomeAndStaysTyped: a name-addressed miss keeps the
// shape Directory.Lookup gave it — the typed registry error, wrapped with
// the name and the home that was asked — and a name repeated in one request
// is read at every position it appears.
func TestGetBatchMissNamesHomeAndStaysTyped(t *testing.T) {
	ec := clustertest.New(t, 2)
	ctx := context.Background()
	dir := cluster.NewDirectory(ec.Client, ec.Endpoints())
	ec.BindCounter(dir, "dup", 5)
	names := []string{"dup", "ghost", "dup"}

	s, err := cluster.GetBatch(ctx, ec.Client, dir, names, cluster.WithGetMethod("Get"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, name := range names {
		e, err := s.Next()
		if err != nil {
			t.Fatalf("Next() entry %d: %v", i, err)
		}
		if e.Index != i || e.Name != name {
			t.Fatalf("entry %d = {%d, %q}, want {%d, %q}", i, e.Index, e.Name, i, name)
		}
		if name == "dup" {
			if e.Err != nil || e.Value.(int64) != 5 {
				t.Errorf("entry %d (dup) = %v, %v; want 5", i, e.Value, e.Err)
			}
			continue
		}
		var notBound *registry.NotBoundError
		if !errors.As(e.Err, &notBound) || notBound.Name != "ghost" {
			t.Fatalf("ghost error = %T %v, want a *registry.NotBoundError for it", e.Err, e.Err)
		}
		home, _ := dir.Home("ghost")
		if prefix := fmt.Sprintf("cluster: lookup %q at %s: ", "ghost", home); !strings.HasPrefix(e.Err.Error(), prefix) {
			t.Errorf("ghost error = %q, want prefix %q", e.Err, prefix)
		}
	}
}
