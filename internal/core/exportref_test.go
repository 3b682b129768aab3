package core_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
)

// TestCallBatchExportPinsResult: a call recorded with CallBatchExport
// returns a pinned exported ref alongside the normal batch result, the ref
// is directly callable from any peer, and further batched calls on the
// proxy replay server-side as usual.
func TestCallBatchExportPinsResult(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	b := core.New(fx.client, fx.dirRef)
	p := b.Root().CallBatchExport("GetFile", "A.txt")
	name := p.Call("GetName") // the exported proxy still records normally
	plain := b.Root().CallBatch("GetFile", "B.txt")

	if _, err := p.ExportedRef(); !errors.Is(err, core.ErrPending) {
		t.Fatalf("ExportedRef before flush = %v, want ErrPending", err)
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := core.Typed[string](name).Get(); err != nil || got != "A.txt" {
		t.Fatalf("batched GetName = %q, %v", got, err)
	}

	ref, err := p.ExportedRef()
	if err != nil {
		t.Fatal(err)
	}
	if ref.IsZero() || ref.Endpoint != "server" {
		t.Fatalf("exported ref = %+v", ref)
	}
	// The pinned ref is a first-class remote reference: plain RMI reaches it.
	res, err := fx.client.Call(ctx, ref, "GetName")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(string); got != "A.txt" {
		t.Errorf("direct call on exported ref = %q, want A.txt", got)
	}

	// Plain CallBatch results stay session-only.
	if _, err := plain.ExportedRef(); !errors.Is(err, core.ErrNotExported) {
		t.Errorf("plain CallBatch ExportedRef = %v, want ErrNotExported", err)
	}
}

// TestCallBatchExportFailedCall: the export ref of a failed call rethrows
// the call's error.
func TestCallBatchExportFailedCall(t *testing.T) {
	fx := newFixture(t)
	b := core.New(fx.client, fx.dirRef)
	p := b.Root().CallBatchExport("GetFile", "missing.txt")
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	var nf *fileNotFoundError
	if _, err := p.ExportedRef(); !errors.As(err, &nf) {
		t.Errorf("ExportedRef of failed call = %v, want fileNotFoundError", err)
	}
}

// TestCallBatchExportInsideCursorRejected: exports are per-call, cursor
// sub-batches per-element; the combination is a recording violation —
// whether the cursor owns the TARGET or sneaks in through an ARGUMENT.
func TestCallBatchExportInsideCursorRejected(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	b := core.New(fx.client, fx.dirRef)
	cur := b.Root().CallCursor("AllFiles")
	cur.CallBatchExport("GetName")
	var be *core.BatchError
	if err := b.Flush(ctx); !errors.As(err, &be) {
		t.Fatalf("flush = %v, want BatchError", err)
	}

	// Cursor ownership via an argument proxy must be rejected too, not
	// silently skipped server-side.
	b2 := core.New(fx.client, fx.dirRef)
	cur2 := b2.Root().CallCursor("AllFiles")
	b2.Root().CallBatchExport("GetFile", cur2)
	if err := b2.Flush(ctx); !errors.As(err, &be) {
		t.Fatalf("flush with cursor-owned argument = %v, want BatchError", err)
	}
}
