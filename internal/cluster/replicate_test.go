package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// epochOwners is an owner source whose ring moves on every read: each call
// bumps the epoch, and a key's followers are named after the epoch they were
// read at — so a list can be checked against the epoch it is paired with, and
// the epoch counts the reads. A key's primary is named after its first letter.
type epochOwners struct{ epoch uint64 }

func (s *epochOwners) at(epoch uint64, key string) []string {
	return []string{"primary-" + key[:1], fmt.Sprintf("%s-follower@%d", key, epoch), fmt.Sprintf("shared@%d", epoch)}
}

func (s *epochOwners) OwnersAll(keys []string) ([][]string, []string, uint64) {
	s.epoch++
	out := make([][]string, len(keys))
	var members []string
	for i, k := range keys {
		out[i] = s.at(s.epoch, k)
		members = append(members, out[i]...)
	}
	slices.Sort(members)
	return out, slices.Compact(members), s.epoch
}

// endpoints resolves a directive's follower indexes against members.
func endpoints(members []string, list []int) []string {
	out := make([]string, len(list))
	for i, at := range list {
		out[i] = members[at]
	}
	return out
}

// TestShipTargetsReadOneEpoch is the replication-fence regression, per wave:
// every follower list of every ship directive of one wave must come from the
// ring epoch the directives are fenced by — ONE read of the ring. Reading the
// lists one name (or one destination) at a time let a refresh between two
// reads ship old-epoch followers under the new epoch, which a primary at the
// new epoch accepts. The same call takes each destination's own primary out of
// its lists and leaves a destination that does not replicate without a
// directive.
func TestShipTargetsReadOneEpoch(t *testing.T) {
	src := &epochOwners{}
	primaries := []string{"primary-a", "primary-x", "primary-b"}
	names := [][]string{{"a0", "a1"}, nil /* a destination that does not replicate */, {"b0"}}
	for wave := uint64(1); wave <= 2; wave++ {
		ds := shipDirectives(src, primaries, names, 2)
		_, members, _ := (&epochOwners{epoch: wave - 1}).OwnersAll(slices.Concat(names...))
		if src.epoch != wave {
			t.Fatalf("wave %d read the ring %d times, want once", wave, src.epoch-(wave-1))
		}
		if len(ds) != len(names) || ds[1] != nil {
			t.Fatalf("wave %d directives = %+v, want one per destination and none for the unreplicated one", wave, ds)
		}
		for i, ns := range names {
			if ns == nil {
				continue
			}
			d := ds[i]
			if d.Epoch != wave || d.Quorum != 2 || d.Names != nil {
				t.Errorf("directive %d = %+v, want the wave's one epoch %d, W=2 and no names", i, d, wave)
			}
			for k, name := range ns {
				if got, want := endpoints(members, d.Followers[k]), src.at(wave, name)[1:]; !reflect.DeepEqual(got, want) {
					t.Errorf("followers of %s = %v = %v, want %v (the owners at the wave's epoch %d, minus %s, as indexes into its membership)", name, d.Followers[k], got, want, wave, primaries[i])
				}
			}
		}
	}
	if ds := shipDirectives(src, primaries, make([][]string, 3), 0); ds != nil || src.epoch != 2 {
		t.Errorf("a wave with no replicating destination read the ring (epoch %d) and built %+v", src.epoch, ds)
	}
	// A ring of one member: the only owner is the primary, nobody follows.
	if ds := shipDirectives(NewRing([]string{"solo"}, WithReplication(3)), []string{"solo"}, [][]string{{"k"}}, 0); ds[0] != nil {
		t.Errorf("a destination nobody follows got the directive %+v", ds[0])
	}
}

// TestRingOwnersAllIsAtomic: OwnersAll against a ring that is being Reset
// between two member sets must never pair a list, or the membership, of one
// set with the epoch of the other.
func TestRingOwnersAllIsAtomic(t *testing.T) {
	sets := [2][]string{{"a", "b", "c"}, {"c", "d", "e"}}
	names := []string{"obj-0", "obj-1", "obj-2", "obj-3"}
	var want [2][][]string
	for i, set := range sets {
		want[i], _, _ = NewRing(set, WithReplication(2)).OwnersAll(names)
	}
	ring := NewRing(sets[0], WithReplication(2))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for e := uint64(1); e <= 200; e++ {
			ring.Reset(sets[e%2], e)
		}
	}()
	for i := 0; i < 200; i++ {
		got, members, epoch := ring.OwnersAll(names)
		if !reflect.DeepEqual(got, want[epoch%2]) || !slices.Equal(members, sets[epoch%2]) {
			t.Fatalf("epoch %d paired with owner lists %v and members %v, want %v and %v", epoch, got, members, want[epoch%2], sets[epoch%2])
		}
	}
	wg.Wait()
}

// TestQuorumTally drives the pure quorum count the way Replica.ship does:
// acks arrive one at a time until every name is at quorum or every follower
// answered.
func TestQuorumTally(t *testing.T) {
	down := errors.New("follower down")
	type ack struct {
		ep  string
		err error
	}
	r3 := [][]string{{"a", "b"}}
	cases := []struct {
		name     string
		owners   [][]string // one follower list per name n0, n1, ...
		quorum   int
		acks     []ack
		metAfter int // acks consumed when quorum is first met; -1 = never
		missName string
		missAck  int
		missReq  int
		missErr  []string // follower endpoints the miss must (only) blame
	}{
		{name: "R3 W0 waits for all", owners: r3, quorum: 0, acks: []ack{{"a", nil}, {"b", nil}}, metAfter: 2},
		{name: "R3 W1 is primary-only", owners: r3, quorum: 1, metAfter: 0},
		{name: "R3 W2 is a majority", owners: r3, quorum: 2, acks: []ack{{"b", nil}, {"a", nil}}, metAfter: 1},
		{name: "R3 W3 is all", owners: r3, quorum: 3, acks: []ack{{"a", nil}, {"b", nil}}, metAfter: 2},
		{name: "R3 W5 caps at the replica count", owners: r3, quorum: 5, acks: []ack{{"a", nil}, {"b", nil}}, metAfter: 2},
		{name: "R3 W2 survives one failed follower", owners: r3, quorum: 2, acks: []ack{{"a", down}, {"b", nil}}, metAfter: 2},
		{name: "R3 W0 misses on one failed follower", owners: r3, quorum: 0, acks: []ack{{"a", nil}, {"b", down}},
			metAfter: -1, missName: "n0", missAck: 2, missReq: 3, missErr: []string{"b"}},
		{name: "overlapping follower sets share an ack", owners: [][]string{{"a", "b"}, {"b", "c"}}, quorum: 2,
			acks: []ack{{"b", nil}}, metAfter: 1},
		{name: "disjoint follower sets each need their own", owners: [][]string{{"a"}, {"c"}}, quorum: 0,
			acks: []ack{{"a", nil}, {"c", nil}}, metAfter: 2},
		{name: "a failure counts only against the names it owns", owners: [][]string{{"a", "b"}, {"b", "c"}}, quorum: 0,
			acks:     []ack{{"a", down}, {"b", nil}, {"c", nil}},
			metAfter: -1, missName: "n0", missAck: 2, missReq: 3, missErr: []string{"a"}},
		{name: "the worst miss is reported", owners: [][]string{{"c"}, {"a", "b"}}, quorum: 0,
			acks:     []ack{{"a", down}, {"b", down}, {"c", down}},
			metAfter: -1, missName: "n1", missAck: 1, missReq: 3, missErr: []string{"a", "b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names := make([]string, len(tc.owners))
			for i := range names {
				names[i] = fmt.Sprintf("n%d", i)
			}
			q := &quorumTally{names: names, followers: tc.owners, quorum: tc.quorum}
			metAfter := -1
			for n := 0; ; n++ {
				if q.met() {
					metAfter = n
					break
				}
				if n == len(tc.acks) {
					break
				}
				q.ack(tc.acks[n].ep, tc.acks[n].err)
			}
			if metAfter != tc.metAfter {
				t.Fatalf("quorum met after %d acks, want %d", metAfter, tc.metAfter)
			}
			miss := q.miss()
			if tc.metAfter >= 0 {
				if miss != nil {
					t.Fatalf("miss() = %v on a met quorum", miss)
				}
				return
			}
			if miss == nil || miss.Name != tc.missName || miss.Acked != tc.missAck || miss.Required != tc.missReq {
				t.Fatalf("miss() = %+v, want %s at %d/%d", miss, tc.missName, tc.missAck, tc.missReq)
			}
			if !errors.Is(miss, down) {
				t.Errorf("miss %v does not wrap the follower failure", miss)
			}
			for _, a := range tc.acks {
				blamed := slices.ContainsFunc(miss.Failed, func(f *FollowerError) bool { return f.Endpoint == a.ep })
				if want := slices.Contains(tc.missErr, a.ep); blamed != want {
					t.Errorf("miss blames %s = %v, want %v (%v)", a.ep, blamed, want, miss)
				}
			}
		})
	}
}

// TestAppendSlotsMustMatchRecords: an Append answer is matched to the records
// sent slot by slot, so an answer of any other shape — too few slots, too
// many, no list at all, no result — is a typed failure of the whole shipment,
// never an index out of range; and a slot is nil or an error, nothing else.
func TestAppendSlotsMustMatchRecords(t *testing.T) {
	refused := errors.New("refused")
	slots, err := appendSlots("follower", 2, []any{[]any{nil, refused}})
	if err != nil || len(slots) != 2 || slotError(slots[0]) != nil || slotError(slots[1]) != refused {
		t.Fatalf("a two-slot answer to two records = %v, %v", slots, err)
	}
	for name, tc := range map[string]struct {
		res  []any
		want int
	}{
		"too few slots":  {[]any{[]any{nil}}, 1},
		"too many slots": {[]any{[]any{nil, nil, nil}}, 3},
		"no slots":       {[]any{[]any{}}, 0},
		"a nil answer":   {[]any{nil}, -1},
		"not a list":     {[]any{"ok"}, -1},
		"no result":      {nil, -1},
		"two results":    {[]any{[]any{nil, nil}, nil}, -1},
	} {
		slots, err := appendSlots("follower", 2, tc.res)
		var sre *ShipReplyError
		if slots != nil || !errors.As(err, &sre) || *sre != (ShipReplyError{Endpoint: "follower", Sent: 2, Slots: tc.want}) {
			t.Errorf("%s: appendSlots = %v, %v; want *ShipReplyError{follower, sent 2, slots %d}", name, slots, err, tc.want)
		}
	}
	if err := slotError("held"); err == nil {
		t.Error("a slot holding a string read as an acknowledgement")
	}
}
