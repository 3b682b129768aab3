package rmi_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rmi"
)

// TestExportedRefLeaseLifecycle: a remote result marshalled out of its server
// — a plain call's, or one a batch pushes to another server inside its wave —
// is exported under DGC: the marshal-grace lease hands off to the holder's
// stub, renewal keeps the export alive well past the lease period, and
// releasing the stub lets the server collect it. It sits with the other lease
// tests, the only ones that shorten a peer's lease.
func TestExportedRefLeaseLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("lease timing test")
	}
	ctx := context.Background()
	const lease = 50 * time.Millisecond
	server, client := newPair(t, rmi.WithLease(lease))
	svc, err := server.Export(&identitySvc{}, "test.IdentitySvc")
	if err != nil {
		t.Fatal(err)
	}

	res, err := client.Call(ctx, svc, "Create")
	if err != nil {
		t.Fatal(err)
	}
	stub, ok := res[0].(*rmi.Stub)
	if !ok {
		t.Fatalf("Create returned %T, want a stub", res[0])
	}
	ref := stub.Ref()

	// The client's renewal keeps the auto-export alive far beyond both the
	// marshal grace and the lease period.
	time.Sleep(4 * lease)
	if _, err := client.Call(ctx, ref, "Value"); err != nil {
		t.Fatalf("held export unreachable after 4 lease periods: %v", err)
	}

	// Releasing the last hold lets the lease table report the object
	// collectable and the export table drop it.
	stub.Release(ctx)
	deadline := time.Now().Add(4 * lease)
	for {
		_, err := client.Call(ctx, ref, "Value")
		var nso *rmi.NoSuchObjectError
		if errors.As(err, &nso) {
			break // collected
		}
		if time.Now().After(deadline) {
			t.Fatalf("export still reachable %v after release (last err %v)", 4*lease, err)
		}
		time.Sleep(lease / 4)
	}
}
