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
// read at — so a list can be checked against the epoch it is paired with, and
// the epoch counts the reads. A key's primary is named after its first letter.
type epochOwners struct{ epoch uint64 }

func (s *epochOwners) at(epoch uint64, key string) []string {
	return []string{"primary-" + key[:1], fmt.Sprintf("%s-follower@%d", key, epoch), fmt.Sprintf("shared@%d", epoch)}
}

func (s *epochOwners) OwnersAll(keys []string) ([][]string, uint64) {
	s.epoch++
	out := make([][]string, len(keys))
	for i, k := range keys {
		out[i] = s.at(s.epoch, k)
	}
	return out, s.epoch
}

// TestShipTargetsReadOneEpoch is the replication-fence regression, per wave:
// every owner list of every record of one wave must come from the ring epoch
// the records are stamped with — ONE read of the ring. Reading the lists one
// name (or one destination) at a time let a refresh between two reads ship
// old-epoch owners under the new epoch, which a follower at the new epoch
// accepts. The same call groups the records by follower.
func TestShipTargetsReadOneEpoch(t *testing.T) {
	src := &epochOwners{}
	for wave := uint64(1); wave <= 2; wave++ {
		recs := []*ReplRecord{
			{ID: "a", Primary: "primary-a", Names: []string{"a0", "a1"}},
			nil, // a destination that left no record
			{ID: "b", Primary: "primary-b", Names: []string{"b0"}},
		}
		tallies, loads := shipTargets(src, recs, 2)
		if src.epoch != wave {
			t.Fatalf("wave %d read the ring %d times, want once", wave, src.epoch-(wave-1))
		}
		for i, rec := range recs {
			if rec == nil {
				if !tallies[i].met() || tallies[i].miss() != nil {
					t.Errorf("tally of the record-less destination %d = %+v, want empty and met", i, tallies[i])
				}
				continue
			}
			if rec.Epoch != wave {
				t.Errorf("record %s stamped with epoch %d, want the wave's one epoch %d", rec.ID, rec.Epoch, wave)
			}
			for k, name := range rec.Names {
				if want := src.at(wave, name); !reflect.DeepEqual(tallies[i].owners[k], want) {
					t.Errorf("owners of %s = %v, want %v (the list at the wave's epoch %d)", name, tallies[i].owners[k], want, wave)
				}
			}
			if tallies[i].quorum != 2 {
				t.Errorf("tally %d quorum = %d, want 2", i, tallies[i].quorum)
			}
		}
		// Distinct followers in first-appearance order, primaries excluded;
		// the shared follower gets both records in ONE shipment.
		type load struct {
			ep    string
			ids   []string
			dests []int
		}
		var got []load
		for _, sh := range loads {
			l := load{ep: sh.ep, dests: sh.dests}
			for _, rec := range sh.recs {
				l.ids = append(l.ids, rec.ID)
			}
			got = append(got, l)
		}
		at := func(s string) string { return fmt.Sprintf("%s@%d", s, wave) }
		want := []load{
			{at("a0-follower"), []string{"a"}, []int{0}},
			{at("shared"), []string{"a", "b"}, []int{0, 2}},
			{at("a1-follower"), []string{"a"}, []int{0}},
			{at("b0-follower"), []string{"b"}, []int{2}},
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("wave %d shipments = %+v, want %+v", wave, got, want)
		}
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
			q := &quorumTally{names: names, owners: tc.owners, quorum: tc.quorum}
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
				blamed := strings.Contains(miss.Err.Error(), a.ep+": ")
				if want := slices.Contains(tc.missErr, a.ep); blamed != want {
					t.Errorf("miss blames %s = %v, want %v (%v)", a.ep, blamed, want, miss.Err)
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
	sh := &shipment{ep: "follower", recs: []*ReplRecord{{ID: "a"}, {ID: "b"}}}
	refused := errors.New("refused")
	slots, err := appendSlots(sh, []any{[]any{nil, refused}})
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
		slots, err := appendSlots(sh, tc.res)
		var sre *ShipReplyError
		if slots != nil || !errors.As(err, &sre) || *sre != (ShipReplyError{Endpoint: "follower", Sent: 2, Slots: tc.want}) {
			t.Errorf("%s: appendSlots = %v, %v; want *ShipReplyError{follower, sent 2, slots %d}", name, slots, err, tc.want)
		}
	}
	if err := slotError("held"); err == nil {
		t.Error("a slot holding a string read as an acknowledgement")
	}
}
