package cluster

import (
	"errors"
	"testing"
)

// TestControlRepliesDecodeTyped: an answer to Manifest or Survey that is not
// what the method returns fails typed. Read as empty, it would tell the
// removal guard a member shadows nothing, and the election that nobody holds
// a name.
func TestControlRepliesDecodeTyped(t *testing.T) {
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"a string for the shard list", "shards"},
		{"a shard list of strings", []any{"server-1"}},
		{"a nil shard", []any{(*ShardInfo)(nil)}},
		{"a shard without a primary", []any{&ShardInfo{}}},
		{"another shard than the one asked for", []any{&ShardInfo{Primary: "server-1"}, &ShardInfo{Primary: "server-2"}}},
	} {
		var re *ReplyError
		if got, err := decodeShards("server-0", "server-1", tc.v); !errors.As(err, &re) || got != nil {
			t.Errorf("survey answering %s: %v, %v; want a *ReplyError", tc.name, got, err)
		}
	}
	for _, tc := range []struct {
		name string
		v    any
	}{
		{"a string", "bindings"},
		{"a list of names", []any{"obj-0"}},
		{"a nil binding", []any{(*Binding)(nil)}},
	} {
		var re *ReplyError
		if got, err := decodeManifest("server-0", tc.v); !errors.As(err, &re) || got != nil {
			t.Errorf("manifest answering %s: %v, %v; want a *ReplyError", tc.name, got, err)
		}
	}

	if got, err := decodeShards("server-0", "", nil); err != nil || got != nil {
		t.Errorf("no shards held: %v, %v; want none", got, err)
	}
	got, err := decodeShards("server-0", "", []any{&ShardInfo{Primary: "server-1"}, &ShardInfo{Primary: "server-2"}})
	if err != nil || len(got) != 2 || got[1].Primary != "server-2" {
		t.Errorf("two shards held: %v, %v", got, err)
	}
	if b, err := decodeManifest("server-0", []any{&Binding{Name: "obj-0"}}); err != nil || len(b) != 1 || b[0].Name != "obj-0" {
		t.Errorf("one binding: %v, %v", b, err)
	}
}
