package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

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
