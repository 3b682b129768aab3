package rmi_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/stats"
)

// TestMessageWithoutHandlerRefusedTyped: a request payload that is neither a
// call nor a message of a type some service handles is answered with
// *rmi.NoHandlerError — no panic, nothing run — over the connection the
// client already had, which then carries a call and a handled message as
// before. Each Send counts as one call.
func TestMessageWithoutHandlerRefusedTyped(t *testing.T) {
	network := netsim.New(netsim.Instant)
	t.Cleanup(func() { _ = network.Close() })
	server := rmi.NewPeer(network, rmi.WithLogf(silentLogf))
	if err := server.Serve("server"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = server.Close() })
	reg := stats.New()
	client := rmi.NewPeer(network, rmi.WithLogf(silentLogf), rmi.WithStatsRegistry(reg))
	t.Cleanup(func() { _ = client.Close() })
	ref := exportCalc(t, server)
	ctx := context.Background()

	if _, err := client.Call(ctx, ref, "Add", 1, 2); err != nil {
		t.Fatal(err)
	}
	dials, calls := reg.Snapshot().Counter("transport.dials"), client.CallCount()
	var refused *rmi.NoHandlerError
	if reply, err := client.Send(ctx, "server", point{X: 1, Y: 2}); !errors.As(err, &refused) || refused.Type != "rmitest.Point" {
		t.Fatalf("unhandled message answered %v, %v; want *rmi.NoHandlerError for rmitest.Point", reply, err)
	}
	handled := 0
	server.HandleMessage("rmitest.Point", func(_ context.Context, msg any) (any, error) {
		handled++
		p := msg.(point)
		return point{X: p.Y, Y: p.X}, nil
	})
	if reply, err := client.Send(ctx, "server", point{X: 1, Y: 2}); err != nil || reply != (point{X: 2, Y: 1}) || handled != 1 {
		t.Errorf("handled message answered %v, %v after %d handler runs; want {2 1} after 1", reply, err, handled)
	}
	if res, err := client.Call(ctx, ref, "Add", 2, 3); err != nil || res[0].(int64) != 5 {
		t.Errorf("call after the refusal = %v, %v; want 5", res, err)
	}
	if got := reg.Snapshot().Counter("transport.dials") - dials; got != 0 {
		t.Errorf("the client dialed %d more times: the refusal closed its connection", got)
	}
	if got := client.CallCount() - calls; got != 3 {
		t.Errorf("two messages and a call counted %d calls, want 3", got)
	}
}
