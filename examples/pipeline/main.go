// Pipeline: cross-server dataflow in one cluster batch.
//
// Three servers play extract / transform / load. The whole pipeline —
// extract a dataset on the first server, transform it on the second
// (reading the dataset BY REFERENCE, server to server), load the summary
// on the third — is recorded into a single cluster.Batch. The flush sends
// every server its part in one parallel round-trip wave, and the results
// cross servers inside it:
//
//	extract.Snapshot()            -> remote Dataset on etl-extract, whose
//	                                 reference extract pushes to transform
//	transform.Normalize(dataset)  -> transform gets a stub and pulls the
//	                                 rows server-to-server
//	load.Store(total)             -> the normalized total, pushed by
//	                                 transform to load
//
// The first cluster batch rejected this recording outright; the staged
// planner ran it in one wave per remote result forwarded by reference, plus
// one. Now neither a value nor a remote result crossing servers costs a wave.
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// Dataset is a remote collection of samples living on the extract server.
// Forwarded consumers receive a stub and read it remotely.
type Dataset struct {
	rmi.RemoteBase
	Samples []int64
}

// Rows returns the raw samples.
func (d *Dataset) Rows() []int64 { return d.Samples }

// Extractor produces datasets.
type Extractor struct {
	rmi.RemoteBase
}

// Snapshot captures the current raw data as a new remote Dataset.
func (e *Extractor) Snapshot() *Dataset {
	return &Dataset{Samples: []int64{3, 1, 4, 1, 5, 9, 2, 6}}
}

// Transformer normalizes datasets it is handed — typically a stub to a
// dataset living on another server.
type Transformer struct {
	rmi.RemoteBase
}

// Normalize pulls the dataset's rows (a server-to-server call when src is
// a forwarded stub) and returns their sum.
func (t *Transformer) Normalize(ctx context.Context, src rmi.Invoker) (int64, error) {
	res, err := src.Invoke(ctx, "Rows")
	if err != nil {
		return 0, err
	}
	rows, ok := res[0].([]any)
	if !ok {
		return 0, fmt.Errorf("Rows returned %T", res[0])
	}
	var sum int64
	for _, r := range rows {
		sum += r.(int64)
	}
	return sum, nil
}

// Loader stores final results.
type Loader struct {
	rmi.RemoteBase
	stored []int64
}

// Store records a summary value and returns the number stored so far.
func (l *Loader) Store(v int64) int64 {
	l.stored = append(l.stored, v)
	return int64(len(l.stored))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	network := netsim.New(netsim.LAN)
	defer network.Close()

	// --- three single-role servers -----------------------------------------
	var refs []wire.Ref
	for _, node := range []struct {
		endpoint string
		obj      rmi.Remote
		iface    string
	}{
		{"etl-extract", &Extractor{}, "etl.Extractor"},
		{"etl-transform", &Transformer{}, "etl.Transformer"},
		{"etl-load", &Loader{}, "etl.Loader"},
	} {
		server := rmi.NewPeer(network, rmi.WithLogf(func(string, ...any) {}))
		if err := server.Serve(node.endpoint); err != nil {
			return err
		}
		defer server.Close()
		exec, err := core.Install(server)
		if err != nil {
			return err
		}
		defer exec.Stop()
		ref, err := server.Export(node.obj, node.iface)
		if err != nil {
			return err
		}
		refs = append(refs, ref)
	}

	client := rmi.NewPeer(network, rmi.WithLogf(func(string, ...any) {}))
	defer client.Close()

	// --- the whole pipeline, one recording ---------------------------------
	batch := cluster.New(client)
	extract := batch.Root(refs[0])
	transform := batch.Root(refs[1])
	load := batch.Root(refs[2])

	dataset := extract.CallBatch("Snapshot")      // stays remote
	total := transform.Call("Normalize", dataset) // dataset pushed by ref
	count := load.Call("Store", total)            // total pushed

	before, start := client.CallCount(), time.Now()
	if err := batch.Flush(ctx); err != nil {
		return err
	}
	elapsed := time.Since(start)

	sum, err := cluster.Typed[int64](total).Get()
	if err != nil {
		return err
	}
	n, err := cluster.Typed[int64](count).Get()
	if err != nil {
		return err
	}
	fmt.Printf("normalized total %d, %d summary row(s) stored\n", sum, n)
	fmt.Printf("depth-2 pipeline across 3 servers: %d waves, %d client round trips, %v\n",
		batch.Waves(), client.CallCount()-before, elapsed.Round(time.Microsecond))
	return nil
}
