// Package bench provides the benchmark harness that regenerates the paper's
// evaluation (Figures 5-13, §5.2-§5.4): the workload services, RMI and BRMI
// client drivers, measurement utilities, and paper-style series printing.
// cmd/benchfig prints the figures; this package's tests pin the round trips
// and loopback calls that cause each figure's shape as exact counts.
package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rmi"
	"repro/internal/wire"
)

// --- no-op service (Figures 5-6) ---------------------------------------------

// NoopService is the do-nothing remote object of the no-op micro benchmark:
// "a do-nothing remote method that takes no parameters and returns void"
// (§5.3), isolating middleware processing overhead plus latency.
type NoopService struct {
	rmi.RemoteBase
}

// Noop does nothing.
func (s *NoopService) Noop() {}

// DispatchLocal is the reflection-free skeleton (rmi.LocalDispatcher),
// mirroring what brmigen's Dispatch<Iface> helper emits.
func (s *NoopService) DispatchLocal(_ context.Context, method string, _ []any, buf []any) ([]any, bool, error) {
	if method != "Noop" {
		return nil, false, nil
	}
	s.Noop()
	return buf[:0], true, nil
}

// --- echo service (hot-path allocation budget) ---------------------------------

// Payload is the marshal-heavy argument/result of the hot-path workload
// (TestHotPathAllocBudget): a registered struct with a string, integers, a byte body, and a duration,
// so every recorded call exercises the full codec surface (type definition,
// field encode/decode, byte copy) rather than just the framing.
type Payload struct {
	ID      int64
	Name    string
	Seq     uint64
	Data    []byte
	Elapsed time.Duration
}

// EchoService is the remote object of the hot-path workload: Echo returns
// its argument, so each call marshals the payload twice (request and
// response) on both peers.
type EchoService struct {
	rmi.RemoteBase
}

// Echo returns p unchanged.
func (s *EchoService) Echo(p Payload) Payload { return p }

// DispatchLocal is the reflection-free skeleton (rmi.LocalDispatcher),
// mirroring what brmigen's Dispatch<Iface> helper emits.
func (s *EchoService) DispatchLocal(_ context.Context, method string, args []any, buf []any) ([]any, bool, error) {
	if method != "Echo" || len(args) != 1 {
		return nil, false, nil
	}
	p, ok := args[0].(Payload)
	if !ok {
		return nil, false, nil // odd argument form; reflective dispatch converts
	}
	return append(buf[:0], s.Echo(p)), true, nil
}

// --- linked list (Figures 7-9) -------------------------------------------------

// ListNode is the remote linked list of the traversal micro benchmark
// (§5.3): Next returns a remote reference, so every traversal step of the
// RMI version marshals a remote object; the BRMI version keeps the chain on
// the server.
type ListNode struct {
	rmi.RemoteBase
	next  *ListNode
	value int
}

// BuildList creates a chain of n nodes valued 0..n-1.
func BuildList(n int) *ListNode {
	var head *ListNode
	for i := n - 1; i >= 0; i-- {
		head = &ListNode{next: head, value: i}
	}
	return head
}

// Next returns the following node (nil at the tail).
func (n *ListNode) Next() *ListNode { return n.next }

// GetValue returns the node's value.
func (n *ListNode) GetValue() int { return n.value }

// --- remote simulation (Figures 10-11) ----------------------------------------

// Balancer is the auxiliary remote object of the simulation benchmark; the
// benefit measured is whether calls to it from the simulation are local
// (BRMI preserves identity, §4.4) or loopback remote calls (RMI).
type Balancer struct {
	rmi.RemoteBase
	calls int
}

// Balance performs one balancing operation.
func (b *Balancer) Balance() { b.calls++ }

// Calls reports how many balance operations ran.
func (b *Balancer) Calls() int { return b.calls }

// Simulation mirrors the paper's Simulation remote object (§5.3).
type Simulation struct {
	rmi.RemoteBase
	result float64
}

// CreateBalancer creates the balancer the client parameterizes.
func (s *Simulation) CreateBalancer() *Balancer { return &Balancer{} }

// PerformSimulationStep runs reps balance calls through the balancer
// argument. When b arrives as a loopback stub (faithful RMI), each balance
// call crosses the network; when identity is preserved (BRMI), it is local.
func (s *Simulation) PerformSimulationStep(ctx context.Context, reps int, b any) (int, error) {
	switch x := b.(type) {
	case *Balancer:
		for i := 0; i < reps; i++ {
			x.Balance()
		}
		s.result += float64(reps)
		return reps, nil
	case rmi.Invoker:
		for i := 0; i < reps; i++ {
			if _, err := x.Invoke(ctx, "Balance"); err != nil {
				return 0, err
			}
		}
		s.result += float64(reps)
		return reps, nil
	default:
		return 0, fmt.Errorf("bench: unexpected balancer type %T", b)
	}
}

// GetSimulationResults returns the accumulated result.
func (s *Simulation) GetSimulationResults() float64 { return s.result }

// --- remote file server (Figures 12-13) ----------------------------------------

// RemoteFile is one entry of the remote file server (§5.1, §5.4). Contents
// are held in memory, as in the paper ("loads all the files from disk into
// main memory, to avoid disk access tainting the results").
type RemoteFile struct {
	rmi.RemoteBase
	name     string
	dir      bool
	modified time.Time
	contents []byte
}

// GetName returns the file name.
func (f *RemoteFile) GetName() string { return f.name }

// IsDirectory reports whether the entry is a directory.
func (f *RemoteFile) IsDirectory() bool { return f.dir }

// LastModified returns the modification time in Unix milliseconds, like
// java.io.File.lastModified.
func (f *RemoteFile) LastModified() int64 { return f.modified.UnixMilli() }

// Length returns the content size.
func (f *RemoteFile) Length() int64 { return int64(len(f.contents)) }

// Contents returns the file body.
func (f *RemoteFile) Contents() []byte { return f.contents }

// FileServer is the remote directory of the macro benchmark.
type FileServer struct {
	rmi.RemoteBase
	files []*RemoteFile
}

// NewFileServer creates a server directory with n files whose sizes sum to
// totalBytes, mirroring the macro benchmark setup (10 files, 100 KB total).
func NewFileServer(n, totalBytes int) *FileServer {
	fs := &FileServer{}
	if n <= 0 {
		return fs
	}
	per := totalBytes / n
	base := time.Date(2009, 6, 22, 10, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		body := make([]byte, per)
		for j := range body {
			body[j] = byte(i + j)
		}
		fs.files = append(fs.files, &RemoteFile{
			name:     fmt.Sprintf("file-%02d.dat", i),
			modified: base.Add(time.Duration(i) * time.Hour),
			contents: body,
		})
	}
	return fs
}

// ListFiles returns all files.
func (fs *FileServer) ListFiles() []*RemoteFile { return fs.files }

// Payload travels on every hot-path workload call; it installs a
// compiled wire codec like the protocol messages do, the pattern an
// application type opts into for its own hot paths.
func encPayload(x wire.Enc, p *Payload) error {
	n := 5
	if p.Elapsed == 0 {
		n = 4
		if p.Data == nil {
			n = 3
			if p.Seq == 0 {
				n = 2
				if p.Name == "" {
					n = 1
					if p.ID == 0 {
						n = 0
					}
				}
			}
		}
	}
	x.BeginStruct("bench.payload", n)
	if n > 0 {
		x.Int(p.ID)
	}
	if n > 1 {
		x.Str(p.Name)
	}
	if n > 2 {
		x.Uint(p.Seq)
	}
	if n > 3 {
		x.BytesVal(p.Data)
	}
	if n > 4 {
		x.Int(int64(p.Elapsed))
	}
	return nil
}

func decPayload(x wire.Dec, p *Payload, n int) error {
	var err error
	if n > 0 {
		if p.ID, err = x.Int(); err != nil {
			return err
		}
	}
	if n > 1 {
		if p.Name, err = x.Str(); err != nil {
			return err
		}
	}
	if n > 2 {
		if p.Seq, err = x.Uint(); err != nil {
			return err
		}
	}
	if n > 3 {
		if p.Data, err = x.BytesVal(); err != nil {
			return err
		}
	}
	if n > 4 {
		if p.Elapsed, err = x.Dur(); err != nil {
			return err
		}
	}
	return x.SkipFields(n - 5)
}

func init() {
	rmi.RegisterImpl("bench.ListNode", &ListNode{})
	rmi.RegisterImpl("bench.Balancer", &Balancer{})
	rmi.RegisterImpl("bench.RemoteFile", &RemoteFile{})
	wire.MustRegisterCompiled("bench.payload", false, encPayload, decPayload)
}

// ensure the workload types stay wire-compatible (compile-time checks).
var (
	_ rmi.Remote = (*NoopService)(nil)
	_ rmi.Remote = (*ListNode)(nil)
	_ rmi.Remote = (*Simulation)(nil)
	_ rmi.Remote = (*FileServer)(nil)
	_            = wire.Ref{}
	_            = core.RootTarget
)
