// Package dynamo composes the DynamoDB-style baseline of §2.1: a
// stateless REST front door (internal/restbase) over a three-replica
// quorum store, priced by the request-unit book.
//
// Calibration: on the DC2021 profile a strongly consistent 1 KB GetItem
// lands at the paper's ~4.3 ms — the sum of connection setup, HTTP and
// JSON handling, a remote credential check, two internal routing hops,
// and the replicated storage access — and costs $0.125–0.25 per million
// reads depending on consistency (the paper's $0.18/M is a mix).
package dynamo

import (
	"time"

	"repro/internal/consistency"
	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/media"
	"repro/internal/object"
	"repro/internal/restbase"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// Table is a DynamoDB-like key-value table.
type Table struct {
	env  *sim.Env
	gw   *restbase.Gateway
	grp  *consistency.Group
	keys map[string]object.ID
}

// replicas is the table's replication factor.
const replicas = 3

// New builds a table of three disk replicas, one in each of racks 0–2.
func New(net *simnet.Network) *Table {
	var nodes []simnet.NodeID
	for i := 0; i < replicas; i++ {
		nodes = append(nodes, net.AddNode(i))
	}
	grp := consistency.NewGroup(net.Env(), net, nodes, media.Disk)
	cfg := restbase.DefaultConfig()
	// A managed database routes through as many hops as the plain gateway,
	// but each one does metadata and partition lookups: 800 µs per hop,
	// against the gateway's 300 µs.
	cfg.PerHopProcess = 800 * time.Microsecond
	t := &Table{
		env:  net.Env(),
		gw:   restbase.NewGateway(net, grp, cfg),
		grp:  grp,
		keys: make(map[string]object.ID),
	}
	// NewGateway labelled the run "rest"; a managed table is its own
	// baseline, so relabel (last set wins).
	trace.Of(t.env).SetLabel("dynamo")
	return t
}

// PutItem stores value under key.
func (t *Table) PutItem(p *sim.Proc, client simnet.NodeID, creds, key string, value []byte) error {
	sp := trace.Of(t.env).Start(p, "dynamo", "put_item",
		trace.Str("key", key), trace.Int("bytes", int64(len(value))))
	defer sp.Close(p)
	if err := fault.Of(t.env).OpFault(p, "dynamo.put_item"); err != nil {
		return err
	}
	id, ok := t.keys[key]
	if !ok {
		var err error
		id, err = t.gw.Create(p, client, creds, object.Regular)
		if err != nil {
			return err
		}
		t.keys[key] = id
	}
	return t.gw.Put(p, client, creds, id, value, consistency.Linearizable)
}

// GetItem fetches key's value; strong selects a strongly consistent read.
// The value is a read-only view (restbase.Gateway.Get): do not write into it.
func (t *Table) GetItem(p *sim.Proc, client simnet.NodeID, creds, key string, strong bool) ([]byte, error) {
	sp := trace.Of(t.env).Start(p, "dynamo", "get_item",
		trace.Str("key", key), trace.Str("consistency", consistencyName(strong)))
	defer sp.Close(p)
	if err := fault.Of(t.env).OpFault(p, "dynamo.get_item"); err != nil {
		return nil, err
	}
	id, ok := t.keys[key]
	if !ok {
		return nil, consistency.ErrNotFound
	}
	lvl := consistency.Eventual
	if strong {
		lvl = consistency.Linearizable
	}
	return t.gw.Get(p, client, creds, id, lvl)
}

func consistencyName(strong bool) string {
	if strong {
		return "strong"
	}
	return "eventual"
}

// ReadCostPerMillion returns the priced cost of a size-byte read at the
// given consistency, per million operations.
func ReadCostPerMillion(size int64, strong bool) cost.USD {
	return cost.DynamoBook.ReadCost(size, strong).PerMillion()
}
