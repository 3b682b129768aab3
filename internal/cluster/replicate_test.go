package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
)

// epochOwners is an owner source whose ring moves on every read: each call
// bumps the epoch, and a key's followers are named after the epoch they were
// read at — so a list can be checked against the epoch it is paired with.
type epochOwners struct{ epoch uint64 }

func (s *epochOwners) at(epoch uint64, key string) []string {
	return []string{"primary", fmt.Sprintf("%s-follower@%d", key, epoch), fmt.Sprintf("shared@%d", epoch)}
}

func (s *epochOwners) OwnersAll(keys []string) ([][]string, uint64) {
	s.epoch++
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = s.at(s.epoch, k)
	}
	return out, s.epoch
}

// TestShipTargetsReadOneEpoch is the replication-fence regression: every
// owner list of one record must come from the ring epoch the record is
// stamped with. Reading the lists one name at a time let a refresh between
// two reads ship old-epoch owners under the new epoch, which a follower at
// the new epoch accepts.
func TestShipTargetsReadOneEpoch(t *testing.T) {
	src := &epochOwners{}
	names := []string{"n0", "n1", "n2"}
	owners, followers, epoch := shipTargets(src, "primary", names)
	for i, name := range names {
		if want := src.at(epoch, name); !reflect.DeepEqual(owners[i], want) {
			t.Errorf("owners of %s = %v, want %v (the list at the record's epoch %d)", name, owners[i], want, epoch)
		}
	}
	want := []string{"n0-follower@1", "shared@1", "n1-follower@1", "n2-follower@1"}
	if !reflect.DeepEqual(followers, want) {
		t.Errorf("followers = %v, want %v (distinct, primary excluded, first-appearance order)", followers, want)
	}
}

// TestRingOwnersAllIsAtomic: OwnersAll against a ring that is being Reset
// between two member sets must never pair a list from one set with the
// epoch of the other.
func TestRingOwnersAllIsAtomic(t *testing.T) {
	sets := [2][]string{{"a", "b", "c"}, {"c", "d", "e"}}
	names := []string{"obj-0", "obj-1", "obj-2", "obj-3"}
	var want [2][][]string
	for i, set := range sets {
		want[i], _ = NewRing(set, WithReplication(2)).OwnersAll(names)
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
		got, epoch := ring.OwnersAll(names)
		if !reflect.DeepEqual(got, want[epoch%2]) {
			t.Fatalf("epoch %d paired with owner lists %v, want %v", epoch, got, want[epoch%2])
		}
	}
	wg.Wait()
}

// TestQuorumTally drives the pure quorum count the way replicate does: acks
// arrive one at a time until every name is at quorum or every follower
// answered.
func TestQuorumTally(t *testing.T) {
	down := errors.New("follower down")
	type ack struct {
		ep  string
		err error
	}
	r3 := [][]string{{"p", "a", "b"}}
	cases := []struct {
		name     string
		owners   [][]string // one list per name n0, n1, ...
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
		{name: "overlapping follower sets share an ack", owners: [][]string{{"p", "a", "b"}, {"p", "b", "c"}}, quorum: 2,
			acks: []ack{{"b", nil}}, metAfter: 1},
		{name: "disjoint follower sets each need their own", owners: [][]string{{"p", "a"}, {"p", "c"}}, quorum: 0,
			acks: []ack{{"a", nil}, {"c", nil}}, metAfter: 2},
		{name: "a failure counts only against the names it owns", owners: [][]string{{"p", "a", "b"}, {"p", "b", "c"}}, quorum: 0,
			acks:     []ack{{"a", down}, {"b", nil}, {"c", nil}},
			metAfter: -1, missName: "n0", missAck: 2, missReq: 3, missErr: []string{"a"}},
		{name: "the worst miss is reported", owners: [][]string{{"p", "c"}, {"p", "a", "b"}}, quorum: 0,
			acks:     []ack{{"a", down}, {"b", down}, {"c", down}},
			metAfter: -1, missName: "n1", missAck: 1, missReq: 3, missErr: []string{"a", "b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names := make([]string, len(tc.owners))
			for i := range names {
				names[i] = fmt.Sprintf("n%d", i)
			}
			q := &quorumTally{names: names, owners: tc.owners, quorum: tc.quorum, acks: make(map[string]error)}
			metAfter := -1
			for n := 0; ; n++ {
				if q.met() {
					metAfter = n
					break
				}
				if n == len(tc.acks) {
					break
				}
				q.acks[tc.acks[n].ep] = tc.acks[n].err
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
				blamed := strings.Contains(miss.Err.Error(), a.ep+": ")
				if want := slices.Contains(tc.missErr, a.ep); blamed != want {
					t.Errorf("miss blames %s = %v, want %v (%v)", a.ep, blamed, want, miss.Err)
				}
			}
		})
	}
}
