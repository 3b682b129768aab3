// Rebalance: live re-sharding under in-flight traffic.
//
// Three servers shard a fleet of movable counters; a fourth server joins
// while a cluster batch recorded against the OLD shard map is still
// unflushed. The rebalancer migrates the moved counters (bindings + state)
// to the newcomer in batched round trips — one multi-root BRMI batch per
// (source, destination) pair — and leaves wrong-home tombstones behind.
// When the stale batch finally flushes, the old home rejects its wave with
// rmi.WrongHomeError; the flush refreshes the shard map, re-partitions the
// affected calls to the new home, and completes after a single retry.
//
//	go run ./examples/rebalance
package main

import (
	"context"
	"fmt"
	"os"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/rmi"
)

// Account is a movable remote object: its balance follows it to a new home
// server when the ring changes.
type Account struct {
	rmi.RemoteBase
	mu      sync.Mutex
	balance int64
}

const accountIface = "example.Account"

func init() {
	cluster.RegisterMovable(accountIface, func() rmi.Remote { return &Account{} })
}

// Deposit adds to the balance and returns the new total.
func (a *Account) Deposit(n int64) int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance += n
	return a.balance
}

// Balance returns the current balance.
func (a *Account) Balance() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balance
}

// Snapshot and Restore implement cluster.Movable.
func (a *Account) Snapshot() (any, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.balance, nil
}

func (a *Account) Restore(state any) error {
	n, ok := state.(int64)
	if !ok {
		return fmt.Errorf("unexpected snapshot %T", state)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.balance = n
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rebalance:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	network := netsim.New(netsim.LAN)
	defer network.Close()

	// --- four full nodes; only three start in the ring ---------------------
	const baseServers, totalServers = 3, 4
	endpoints := make([]string, totalServers)
	servers := make(map[string]*rmi.Peer, totalServers)
	for i := 0; i < totalServers; i++ {
		endpoints[i] = fmt.Sprintf("shard-%d", i)
		server := rmi.NewPeer(network, rmi.WithLogf(func(string, ...any) {}))
		if err := server.Serve(endpoints[i]); err != nil {
			return err
		}
		defer server.Close()
		exec, err := core.Install(server)
		if err != nil {
			return err
		}
		defer exec.Stop()
		reg, err := registry.Start(server)
		if err != nil {
			return err
		}
		if _, err := cluster.StartNode(server, reg, nil); err != nil {
			return err
		}
		servers[endpoints[i]] = server
	}
	newcomer := endpoints[baseServers]

	client := rmi.NewPeer(network, rmi.WithLogf(func(string, ...any) {}))
	defer client.Close()
	dir := cluster.NewDirectory(client, endpoints[:baseServers])

	// --- open sharded accounts ---------------------------------------------
	accounts := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	for i, name := range accounts {
		home, err := dir.Home(name)
		if err != nil {
			return err
		}
		ref, err := servers[home].Export(&Account{balance: int64(1000 * (i + 1))}, accountIface)
		if err != nil {
			return err
		}
		if err := dir.Bind(ctx, name, ref); err != nil {
			return err
		}
		fmt.Printf("%-6s opened at %s with balance %5d\n", name, home, 1000*(i+1))
	}

	// --- record a batch against the CURRENT (soon stale) shard map ---------
	// RootNamed only routes: each name is filed under its home on the ring as
	// it stands NOW, and no server hears of it before the flush.
	batch := cluster.New(client, cluster.WithDirectory(dir))
	deposits := make(map[string]cluster.TypedFuture[int64], len(accounts))
	for _, name := range accounts {
		acct, err := batch.RootNamed(ctx, name)
		if err != nil {
			return err
		}
		deposits[name] = cluster.Typed[int64](acct.Call("Deposit", int64(50)))
	}
	fmt.Printf("\nrecorded %d deposits against the %d-server ring (epoch %d)\n",
		batch.PendingCalls(), len(dir.Servers()), dir.Epoch())

	// --- the cluster grows while the batch is unflushed ---------------------
	stats, err := cluster.NewRebalancer(dir).AddServer(ctx, newcomer)
	if err != nil {
		return err
	}
	fmt.Printf("%s joined: epoch %d, %d accounts migrated in %d batched flows\n",
		newcomer, stats.Epoch, stats.Moved, stats.Pairs)

	// --- the stale flush survives via one wrong-home retry ------------------
	// The old home refuses the names it no longer holds; the flush re-routes
	// them on the refreshed ring and the new home resolves them in the retry
	// wave. No lookup before, between or after.
	if err := batch.Flush(ctx); err != nil {
		return err
	}
	fmt.Printf("stale flush completed in %d waves (1 wave + %d retry)\n\n", batch.Waves(), batch.Waves()-1)

	for _, name := range accounts {
		home, err := dir.Home(name)
		if err != nil {
			return err
		}
		balance, err := deposits[name].Get()
		if err != nil {
			return fmt.Errorf("%s: deposit: %w", name, err)
		}
		marker := ""
		if home == newcomer {
			marker = "  <- migrated live, state intact"
		}
		fmt.Printf("%-6s balance %5d at %s%s\n", name, balance, home, marker)
	}
	return nil
}
