// Package netsim models interconnect time for MPI-style communication.
//
// The model is LogGP-flavoured: a point-to-point message pays sender and
// receiver CPU overhead (o), wire latency (L), and a bandwidth term, with
// per-node NIC sharing contention scaling the effective bandwidth.
// Collectives are built from the standard logarithmic algorithms
// (recursive doubling / binomial trees), which is how the paper's
// NETBENCH all_reduce behaves on switched fabrics.
//
// All returned times are seconds for the calling rank; callers multiply by
// event counts and add to compute time.
package netsim

import (
	"fmt"
	"math"

	"hpcmetrics/internal/machine"
)

// Op identifies a communication operation.
type Op int

const (
	// OpPointToPoint is a matched send/receive pair.
	OpPointToPoint Op = iota
	// OpAllReduce combines a value across all ranks and redistributes it.
	OpAllReduce
	// OpBcast distributes a buffer from one rank to all.
	OpBcast
	// OpBarrier synchronizes all ranks.
	OpBarrier
	// OpAllToAll exchanges distinct buffers between every rank pair.
	OpAllToAll
	numOps
)

// String returns the operation name.
func (o Op) String() string {
	switch o {
	case OpPointToPoint:
		return "p2p"
	case OpAllReduce:
		return "allreduce"
	case OpBcast:
		return "bcast"
	case OpBarrier:
		return "barrier"
	case OpAllToAll:
		return "alltoall"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Event is a counted communication operation. Bytes is the per-process
// payload of one operation (ignored for barriers).
type Event struct {
	Op    Op
	Bytes int64
	Count float64
}

// Model prices communication for a job of P ranks on a machine.
type Model struct {
	procs int

	latency  float64 // seconds
	overhead float64 // seconds
	effBW    float64 // bytes/second after NIC contention
	stages   float64 // ceil(log2 P)
}

// New builds a model for procs ranks packed onto the machine's nodes.
func New(cfg *machine.Config, procs int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("netsim: %w", err)
	}
	if procs < 1 {
		return nil, fmt.Errorf("netsim: need at least 1 rank, got %d", procs)
	}
	if procs > cfg.TotalProcs {
		return nil, fmt.Errorf("netsim: %d ranks exceed %s's %d processors", procs, cfg.Name, cfg.TotalProcs)
	}

	net := cfg.Net
	perNIC := net.BandwidthMBs * 1e6

	// Ranks are packed: a full node hosts CoresPerNode ranks sharing
	// NICsPerNode injection ports. Concurrent streams per NIC serialize
	// partially, governed by the topology's contention coefficient.
	ranksPerNode := procs
	if ranksPerNode > cfg.CoresPerNode {
		ranksPerNode = cfg.CoresPerNode
	}
	streams := float64(ranksPerNode) / float64(net.NICsPerNode)
	if streams < 1 {
		streams = 1
	}
	effBW := perNIC / (1 + net.ContentionBeta*(streams-1))

	return &Model{
		procs:    procs,
		latency:  net.LatencyUs * 1e-6,
		overhead: net.OverheadUs * 1e-6,
		effBW:    effBW,
		stages:   math.Ceil(math.Log2(float64(procs))),
	}, nil
}

// PointToPoint returns the time for one matched message of the given size.
// Intra-node messages on multi-core nodes would be cheaper; the model
// charges the network path, which is the common case for domain-decomposed
// halo exchange at the study's rank counts.
func (m *Model) PointToPoint(bytes int64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return 2*m.overhead + m.latency + float64(bytes)/m.effBW
}

// AllReduce returns the time for one allreduce of the given payload using
// recursive doubling: ceil(log2 P) stages, each a latency plus the payload
// transfer plus combine overhead.
func (m *Model) AllReduce(bytes int64) float64 {
	if m.procs == 1 {
		return 0
	}
	if bytes < 0 {
		bytes = 0
	}
	perStage := m.latency + 2*m.overhead + float64(bytes)/m.effBW
	return m.stages * perStage
}

// Bcast returns the time for a binomial-tree broadcast.
func (m *Model) Bcast(bytes int64) float64 {
	if m.procs == 1 {
		return 0
	}
	if bytes < 0 {
		bytes = 0
	}
	perStage := m.latency + m.overhead + float64(bytes)/m.effBW
	return m.stages * perStage
}

// Barrier returns the time for a barrier (an 8-byte allreduce).
func (m *Model) Barrier() float64 { return m.AllReduce(8) }

// AllToAll returns the time for a personalized all-to-all in which each
// rank exchanges bytes with every other rank (bytes is the per-pair
// payload). The exchange serializes on the rank's injection port.
func (m *Model) AllToAll(bytes int64) float64 {
	if m.procs == 1 {
		return 0
	}
	if bytes < 0 {
		bytes = 0
	}
	pairs := float64(m.procs - 1)
	return m.latency + pairs*(2*m.overhead+float64(bytes)/m.effBW)
}

// EventTime prices one occurrence of the event.
func (m *Model) EventTime(ev Event) float64 {
	switch ev.Op {
	case OpPointToPoint:
		return m.PointToPoint(ev.Bytes)
	case OpAllReduce:
		return m.AllReduce(ev.Bytes)
	case OpBcast:
		return m.Bcast(ev.Bytes)
	case OpBarrier:
		return m.Barrier()
	case OpAllToAll:
		return m.AllToAll(ev.Bytes)
	default:
		return 0
	}
}

// Time prices a whole event list: sum of count-weighted event times.
func (m *Model) Time(events []Event) float64 {
	var total float64
	for _, ev := range events {
		total += ev.Count * m.EventTime(ev)
	}
	return total
}
