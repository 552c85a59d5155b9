package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/netnode"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

const (
	// maxSettleRounds bounds the stabilization rounds set-up runs before it
	// gives up on the rings converging.
	maxSettleRounds = 40
	// preloadWorkers is how many Puts the preload keeps in flight.
	preloadWorkers = 32
	// walBytesMetric is canonstore.Disk's own counter of WAL bytes appended.
	walBytesMetric = "canon_store_wal_bytes_total"
	// rpcsReceivedMetric is a node's counter of requests served, by type.
	rpcsReceivedMetric = "canon_rpc_received_total"
)

// cluster is an in-process Canon cluster on loopback TCP with a Disk store
// per node, and the benchmark's client.
type cluster struct {
	dir     string
	nodes   []*netnode.Node
	infos   []netnode.Info
	walRegs []*telemetry.Registry
	client  *netnode.Client
	clientT transport.Transport
}

// nodeName is the leaf domain of node i.
func nodeName(i int) string { return leaves[i/nodesPerLeaf] }

// nodeID draws a node ID uniformly within the middle half of one of
// numNodes equal slots of the 32-bit identifier space. One node per slot,
// in a seeded order, keeps every seed's ring arcs within a factor of three
// of each other: with eight uniform IDs the largest arc, and so the share
// of keys and load one node carries, differs several-fold between seeds
// and sets the figures as much as the code does.
func nodeID(rng *rand.Rand, slot int) uint64 {
	const width = (1 << 32) / numNodes
	return uint64(slot)*width + width/4 + uint64(rng.Int63n(width/2))
}

// boot starts the cluster under a fresh directory of dataRoot: every node
// listens on loopback, opens its Disk store and joins through node 0, then
// stabilization runs until every ring is whole. A non-nil tracer wraps each
// node's transport and store, and the client's transport.
func boot(ctx context.Context, w *workload, seed int64, dataRoot string, tr *tracer) (c *cluster, err error) {
	dir, err := os.MkdirTemp(dataRoot, "cluster-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(numNodes)
	for i := 0; i < numNodes; i++ {
		id := nodeID(rng, slots[i])
		reg := telemetry.NewRegistry()
		st, err := canonstore.Open(filepath.Join(dir, fmt.Sprintf("node-%d", i)), canonstore.Options{Telemetry: reg})
		if err != nil {
			return nil, err
		}
		ep, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			st.Close()
			return nil, err
		}
		var (
			tp    transport.Transport = ep
			store canonstore.Store    = st
		)
		if tr != nil {
			tp, store = tr.wrapTransport(ep, i), tr.wrapStore(st, i)
		}
		n, err := netnode.New(netnode.Config{
			ID:                id,
			Name:              nodeName(i),
			Rand:              rand.New(rand.NewSource(rng.Int63())),
			Transport:         tp,
			ReplicationFactor: w.rf,
			Store:             store,
			TraceSampleRate:   w.sample,
		})
		if err != nil {
			ep.Close()
			st.Close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		c.infos = append(c.infos, n.Info())
		c.walRegs = append(c.walRegs, reg)
		contact := ""
		if i > 0 {
			contact = c.infos[0].Addr
		}
		jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		err = n.Join(jctx, contact)
		cancel()
		if err != nil {
			return nil, fmt.Errorf("node %d join: %w", i, err)
		}
	}
	if err := c.settle(ctx); err != nil {
		return nil, err
	}
	ct, err := transport.ListenTCPOpts("127.0.0.1:0", transport.TCPOptions{ConnsPerPeer: 1})
	if err != nil {
		return nil, err
	}
	c.clientT = ct
	if tr != nil {
		c.clientT = tr.wrapTransport(ct, clientNode)
	}
	c.client = netnode.NewClient(c.clientT)
	return c, nil
}

// settle runs stabilization rounds on every node until each node's
// successor and predecessor are right on every ring of its chain, then
// one more finger round.
func (c *cluster) settle(ctx context.Context) error {
	for r := 0; r < maxSettleRounds; r++ {
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
		}
		for _, n := range c.nodes {
			n.FixFingers(ctx)
		}
		if c.ringsWhole() {
			for _, n := range c.nodes {
				n.FixFingers(ctx)
			}
			return nil
		}
	}
	return fmt.Errorf("rings not whole after %d stabilization rounds", maxSettleRounds)
}

// ringsWhole checks every node's ring neighbours against the sorted
// membership of each domain on its chain.
func (c *cluster) ringsWhole() bool {
	for i, n := range c.nodes {
		for level := 0; level <= 2; level++ {
			dom := domainAt(nodeName(i), level)
			var ring []uint64
			for j := range c.nodes {
				if domainAt(nodeName(j), level) == dom {
					ring = append(ring, c.infos[j].ID)
				}
			}
			sort.Slice(ring, func(a, b int) bool { return ring[a] < ring[b] })
			k := sort.Search(len(ring), func(a int) bool { return ring[a] >= c.infos[i].ID })
			succ, pred := ring[(k+1)%len(ring)], ring[(k+len(ring)-1)%len(ring)]
			succs := n.Successors(level)
			if len(succs) == 0 || succs[0].ID != succ || n.Predecessor(level).ID != pred {
				return false
			}
		}
	}
	return true
}

// preload stores every item's seq-0 value through a node of its home leaf.
func (c *cluster) preload(ctx context.Context, items []item, o *oracle) error {
	work := make(chan int)
	errs := make(chan error, preloadWorkers)
	var wg sync.WaitGroup
	for w := 0; w < preloadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				it := items[i]
				n := c.nodes[it.leaf*nodesPerLeaf+(i+w)%nodesPerLeaf]
				v := makeValue(o.seed, it.key, 0, o.size)
				pctx, cancel := context.WithTimeout(ctx, 10*time.Second)
				err := n.Put(pctx, it.key, v, it.storage, it.storage)
				cancel()
				if err != nil {
					errs <- fmt.Errorf("preload key %x: %w", it.key, err)
					return
				}
			}
		}(w)
	}
	var err error
feed:
	for i := range items {
		select {
		case work <- i:
		case err = <-errs:
			break feed
		}
	}
	close(work)
	wg.Wait()
	close(errs)
	if err == nil {
		err = <-errs
	}
	return err
}

// walBytes sums every node's WAL bytes appended so far.
func (c *cluster) walBytes() int64 {
	var total int64
	for _, r := range c.walRegs {
		total += r.CounterValue(walBytesMetric)
	}
	return total
}

// rpcsServed sums the requests every node has served so far, from the
// client and from other nodes, foreground and background.
func (c *cluster) rpcsServed() int64 {
	var total int64
	for _, n := range c.nodes {
		for _, s := range n.Telemetry().Snapshot() {
			if s.Name == rpcsReceivedMetric {
				total += int64(s.Value)
			}
		}
	}
	return total
}

// close stops every node (maintenance, transport, store) and the client,
// then removes the cluster's data.
func (c *cluster) close() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.Close())
	}
	if c.clientT != nil {
		errs = append(errs, c.clientT.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}
