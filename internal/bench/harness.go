package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rmi"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Env is one client/server pair on a simulated network, ready to run a
// workload.
type Env struct {
	Network *netsim.Network
	Server  *rmi.Peer
	Client  *rmi.Peer
	Exec    *core.Executor

	tap     *transport.Recorder // the client's dialer when the env counts bytes
	cleanup []func()
}

func silentLogf(string, ...any) {}

// NewEnv builds a serving peer with the BRMI executor installed, plus a
// client peer, on a network with the given profile.
func NewEnv(profile netsim.Profile) (*Env, error) {
	return newEnv(netsim.New(profile), nil, nil)
}

// newEnv builds an Env on network, which it owns, whose server takes opts.
// The client dials through t when t is not nil.
func newEnv(network *netsim.Network, t *transport.Recorder, opts []rmi.Option) (*Env, error) {
	server := rmi.NewPeer(network, append([]rmi.Option{rmi.WithLogf(silentLogf)}, opts...)...)
	env := &Env{Network: network, Server: server, tap: t}
	env.cleanup = append(env.cleanup, func() { _ = network.Close() })
	if err := server.Serve("server"); err != nil {
		env.Close()
		return nil, err
	}
	env.cleanup = append(env.cleanup, func() { _ = server.Close() })
	exec, err := core.Install(server)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Exec = exec
	env.cleanup = append(env.cleanup, exec.Stop)
	var dialer transport.Network = network
	if t != nil {
		t.Network = network
		dialer = t
	}
	client := rmi.NewPeer(dialer, rmi.WithLogf(silentLogf))
	env.Client = client
	env.cleanup = append(env.cleanup, func() { _ = client.Close() })
	return env, nil
}

// alongside builds a second Env on a network with e's profile and clock,
// whose server takes opts; it counts bytes when e does, and e.Close closes it.
func (e *Env) alongside(opts ...rmi.Option) (*Env, error) {
	var t *transport.Recorder
	if e.tap != nil {
		t = &transport.Recorder{}
	}
	network := netsim.New(e.Network.Profile(), netsim.WithClock(e.Network.Clock()))
	other, err := newEnv(network, t, opts)
	if err != nil {
		return nil, err
	}
	e.cleanup = append(e.cleanup, other.Close)
	return other, nil
}

// Close tears the environment down.
func (e *Env) Close() {
	for i := len(e.cleanup) - 1; i >= 0; i-- {
		e.cleanup[i]()
	}
	e.cleanup = nil
}

// Counts is what one run of a variant costs, exactly.
type Counts struct {
	// Trips is the client's round trips (rmi.Peer.CallCount).
	Trips uint64 `json:"trips"`
	// Loopback is the server's own calls: through stubs of objects it
	// exports itself, the only server there is.
	Loopback uint64 `json:"loopback"`
	// BytesOut and BytesIn are what the client's connection carried each
	// way, frame headers included and the DGC's traffic left out (carried).
	BytesOut int `json:"bytes_out"`
	BytesIn  int `json:"bytes_in"`
}

// count runs v once and returns what it cost. v.Env must count bytes.
func (v Variant) count() (Counts, error) {
	e := v.Env
	trips, loopback := e.Client.CallCount(), e.Server.CallCount()
	out, in, err := carried(e.tap)
	if err != nil {
		return Counts{}, err
	}
	if err := v.Op(); err != nil {
		return Counts{}, fmt.Errorf("%s: %w", v.Name, err)
	}
	out2, in2, err := carried(e.tap)
	if err != nil {
		return Counts{}, err
	}
	return Counts{
		Trips:    e.Client.CallCount() - trips,
		Loopback: e.Server.CallCount() - loopback,
		BytesOut: out2 - out,
		BytesIn:  in2 - in,
	}, nil
}

// carried sums what the recorded connections carried so far, each way,
// minus the DGC's share. DGC Dirty and Clean calls are asynchronous and
// coalesce, so how many a run makes is not deterministic: a call on
// rmi.DGCObjID and its reply are skipped, and since DGC calls also advance
// the connection's frame ids, whose varint grows at 16, every other frame is
// counted with the header it has as the connection's k-th non-DGC call. A
// DGC frame may still be arriving, so the tail may end mid-frame; a
// workload's own frames are complete once its op has returned.
func carried(r *transport.Recorder) (out, in int, err error) {
	sent, received := r.Recorded()
	for i := range sent {
		frames, err := decodeFrames(sent[i])
		if err != nil {
			return 0, 0, err
		}
		renumbered := map[uint64]uint64{}
		for _, f := range frames {
			if f.Kind == transport.KindRequest && isDGC(f.Payload) {
				continue
			}
			renumbered[f.ID] = uint64(len(renumbered) + 1)
			out += f.SizeAs(renumbered[f.ID])
		}
		if frames, err = decodeFrames(received[i]); err != nil {
			return 0, 0, err
		}
		for _, f := range frames {
			if id, ok := renumbered[f.ID]; ok {
				in += f.SizeAs(id)
			}
		}
	}
	return out, in, nil
}

// decodeFrames splits a recorded byte stream into its complete frames.
func decodeFrames(b []byte) ([]transport.Frame, error) {
	frames, err := transport.DecodeFrames(b)
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = nil
	}
	return frames, err
}

// isDGC reports whether a call frame's payload, an rmi.call.req, addresses
// the DGC.
func isDGC(payload []byte) bool {
	_, fields, err := wire.Fields(payload, 0)
	if err != nil || len(fields) == 0 {
		return false
	}
	id, err := wire.Unmarshal(payload[fields[0].Off : fields[0].Off+fields[0].Len])
	return err == nil && id == rmi.DGCObjID
}
