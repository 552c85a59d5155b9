package netnode

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/telemetry"
	"github.com/canon-dht/canon/internal/transport"
)

var (
	// ErrClosed is returned by operations on a closed node.
	ErrClosed = errors.New("netnode: node closed")
	// ErrNotFound is returned by Get when no accessible value exists.
	ErrNotFound = errors.New("netnode: key not found")
	// ErrBadDomain is returned when a storage/access domain does not relate
	// to the node's position as Section 4.1 requires.
	ErrBadDomain = errors.New("netnode: invalid storage/access domain")
)

// lookupHopLimit bounds forwarding chains defensively.
const lookupHopLimit = 512

// stabilizeWalkLimit bounds the per-round predecessor walk of
// stabilizeLevel: in steady state the walk exits after one RPC, and after a
// join burst it may take up to one step per ring member that slotted in
// between a node and its stale successor.
const stabilizeWalkLimit = 64

// Config configures a live node.
type Config struct {
	// Space is the identifier space; the zero value means the default
	// 32-bit space.
	Space id.Space
	// Name is the node's hierarchical domain name, e.g. "stanford/cs/db".
	// Empty means the node lives directly in the root domain.
	Name string
	// ID is the node's identifier. Set RandomID to draw one instead.
	ID uint64
	// RandomID draws the identifier from Rand.
	RandomID bool
	// Rand seeds nondeterministic choices; nil means a time-seeded source.
	Rand *rand.Rand
	// Transport carries the node's traffic.
	Transport transport.Transport
	// Geometry selects the routing geometry: GeometryCrescendo (Chord
	// fingers, the default when empty), GeometryKandy (XOR buckets) or
	// GeometryCacophony (harmonic links + 1-lookahead). Every node of a
	// cluster should run the same geometry; mixed clusters stay correct —
	// all geometries route clockwise over the same rings and agree on
	// ownership — but the link structure each side maintains is its own.
	Geometry string
	// SuccessorListLen is the per-level leaf-set length (default 4).
	SuccessorListLen int
	// RegistrySize bounds the per-domain membership registry (default 8).
	RegistrySize int
	// ReplicationFactor is how many copies of each item exist, counting the
	// owner's: the owner pushes ReplicationFactor-1 replicas to its
	// predecessors within the item's home domain, and anti-entropy keeps
	// that replica set convergent. A stabilization round pushes only what
	// changed since the node's last round, or everything when the replica
	// placement moved (docs/STORAGE.md §6). Values below 2 disable both
	// (the default).
	ReplicationFactor int
	// Store is the node-local storage engine holding the node's items. Nil
	// means a volatile in-memory store (canonstore.NewMem) — the default
	// for tests and simulations; canond passes a canonstore.Disk when
	// -data-dir is set. The node owns the store and closes it on Close.
	Store canonstore.Store
	// SyncInterval is the target period between replica anti-entropy
	// rounds, rounded up to whole maintenance ticks. Zero means every
	// fourth tick; anti-entropy only runs while the maintenance loop does
	// (see Start) and only when ReplicationFactor enables replication.
	SyncInterval time.Duration
	// Retry governs RPC re-send behavior (attempts, backoff, per-attempt
	// timeout). The zero value means the defaults; see RetryPolicy.
	Retry RetryPolicy
	// Telemetry receives the node's metrics (counters, gauges, histograms).
	// Nil means a private registry, readable via Node.Telemetry(). Sharing a
	// registry across in-process nodes aggregates their series; Stats() then
	// reports the aggregate too.
	Telemetry *telemetry.Registry
	// TraceSampleRate samples this fraction of Lookup calls into route
	// traces archived in the node's trace store (0 disables sampling;
	// TracedLookup is always traced regardless).
	TraceSampleRate float64
	// TraceBuffer bounds the completed-trace ring buffer (default 128).
	TraceBuffer int
}

// Node is a live Canon participant running one of the routing geometries
// (Crescendo by default; see Config.Geometry).
type Node struct {
	cfg    Config
	space  id.Space
	self   Info
	levels int // depth of the leaf domain; chain levels are 0..levels
	geom   geometry
	tr     transport.Transport
	rng    *rand.Rand
	retry  RetryPolicy
	health *healthTracker

	// Telemetry: the registry-backed metrics handles and the completed-trace
	// ring buffer this node archives into.
	tel    *telemetry.Registry
	m      *nodeMetrics
	traces *telemetry.TraceStore

	nonceSeq uint64

	// store holds the node's items (values, pointer records, replicas)
	// behind the canonstore.Store interface; it synchronizes internally,
	// so the RPC paths use it without taking the node lock.
	store canonstore.Store
	// clock is the node's Lamport-style write clock: stampVersion draws
	// fresh versions from it and observeVersion advances it past every
	// version seen on the wire, so local stamps always order after them.
	clock atomic.Uint64
	// replMem is the replication round's memory (replicateOnce); a round
	// takes it out with Swap and puts it back when done.
	replMem atomic.Pointer[replicaMemory]

	// routing is the published epoch snapshot of the mutable tables below:
	// the forwarding hot path reads it lock-free, and every mutation of
	// preds/succs/fingers under mu republishes it (publishRoutingLocked).
	routing atomic.Pointer[routingView]

	mu       sync.Mutex
	preds    []Info   // per level
	succs    [][]Info // per level, ascending clockwise from self
	fingers  map[uint64]Info
	registry map[string][]Info // domain prefix -> member hints
	// looks and ests are Cacophony's lookahead state, refreshed wholesale by
	// each exchange round: looks maps (contact address, level) to the
	// clockwise distance from self to that contact's ring successor there
	// (flowing into viewCandidate.look); ests holds the per-level average of
	// the ring-size estimates neighbors reported (0 = none yet). Other
	// geometries leave both empty.
	looks  map[lookKey]uint64
	ests   []uint64
	closed bool

	loopStop chan struct{}
	loopDone chan struct{}
}

// New creates a node. It does not contact anyone; call Join.
func New(cfg Config) (*Node, error) {
	if cfg.Transport == nil {
		return nil, errors.New("netnode: Config.Transport is required")
	}
	space := cfg.Space
	if space.Bits() == 0 {
		space = id.DefaultSpace()
	}
	rng := cfg.Rand
	if rng == nil {
		rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	nodeID := cfg.ID
	if cfg.RandomID {
		nodeID = uint64(space.Random(rng))
	}
	// The node keeps a private RNG seeded from the caller's: Config.Rand is
	// routinely shared across the nodes of a simulated cluster, and rand.Rand
	// is not safe for the concurrent use the maintenance loop and RPC retry
	// jitter would make of it. Deriving the seed here keeps runs with a fixed
	// Config.Rand deterministic.
	private := rand.New(rand.NewSource(rng.Int63()))
	if !space.Contains(id.ID(nodeID)) {
		return nil, fmt.Errorf("netnode: id %d outside %d-bit space", nodeID, space.Bits())
	}
	if cfg.SuccessorListLen <= 0 {
		cfg.SuccessorListLen = 4
	}
	if cfg.RegistrySize <= 0 {
		cfg.RegistrySize = 8
	}
	geom, err := geometryByName(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	levels := len(components(cfg.Name))
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	store := cfg.Store
	if store == nil {
		store = canonstore.NewMem()
	}
	n := &Node{
		cfg:      cfg,
		space:    space,
		self:     Info{ID: nodeID, Name: cfg.Name, Addr: cfg.Transport.Addr()},
		levels:   levels,
		geom:     geom,
		tr:       cfg.Transport,
		rng:      private,
		retry:    cfg.Retry.withDefaults(),
		health:   newHealthTracker(),
		tel:      reg,
		m:        newNodeMetrics(reg),
		traces:   telemetry.NewTraceStore(cfg.TraceBuffer),
		store:    store,
		preds:    make([]Info, levels+1),
		succs:    make([][]Info, levels+1),
		fingers:  make(map[uint64]Info),
		registry: make(map[string][]Info),
		ests:     make([]uint64, levels+1),
	}
	// A durable store may come back from disk already holding versioned
	// entries (a canond restart): advance the write clock past every
	// replayed version so fresh stamps order after pre-crash writes, and
	// seed the stored-keys gauge.
	store.ForEach(func(e canonstore.Entry) bool {
		n.observeVersion(e.Version)
		return true
	})
	n.m.storeItems.Set(float64(store.Keys()))
	// Publish the initial (empty) routing view before the transport can
	// deliver a lookup: the hot path loads it unconditionally.
	n.publishRouting()
	// Nonce-based dedup gives every handler at-most-once semantics under
	// caller retries and transport-level duplication.
	n.tr.Serve(transport.DedupHandler(n.handle, 4096))
	return n, nil
}

// Info returns the node's wire identity.
func (n *Node) Info() Info { return n.self }

// Telemetry returns the node's metrics registry (the one passed in
// Config.Telemetry, or the node-private registry).
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// TraceStore returns the node's completed-trace ring buffer: traces the node
// originated or served as the entry hop for.
func (n *Node) TraceStore() *telemetry.TraceStore { return n.traces }

// Levels returns the node's chain depth: level 0 is the root, Levels() is
// the leaf.
func (n *Node) Levels() int { return n.levels }

// clockwise is shorthand for the ring distance from a to b.
func (n *Node) clockwise(a, b uint64) uint64 {
	return n.space.Clockwise(id.ID(a), id.ID(b))
}

// Join inserts the node into the network through the given contact address.
// An empty contact bootstraps a new network. Per Section 2.3, the node looks
// up its own identifier at every level of its chain, going from the lowest
// domain to the top, and splices itself in after the predecessor found at
// each level.
func (n *Node) Join(ctx context.Context, contact string) error {
	if contact == "" {
		n.mu.Lock()
		for l := 0; l <= n.levels; l++ {
			n.succs[l] = []Info{n.self}
			n.preds[l] = n.self
		}
		n.publishRoutingLocked()
		n.mu.Unlock()
		return n.registerSelf(ctx)
	}
	// Find, for every level, a member of our domain to start the
	// constrained lookup from. The contact serves the levels it shares;
	// deeper domains are resolved through the membership registry.
	contactInfo, err := n.pingAddr(ctx, contact)
	if err != nil {
		return fmt.Errorf("netnode: contact %s: %w", contact, err)
	}
	shared := sharedLevels(n.self.Name, contactInfo.Name)
	for l := 0; l <= n.levels; l++ {
		prefix := prefixAt(n.self.Name, l)
		var seed Info
		switch {
		case l <= shared:
			seed = contactInfo
		default:
			seed, err = n.findMember(ctx, contactInfo, prefix)
			if err != nil {
				// First node in this domain: alone at this level.
				n.mu.Lock()
				n.succs[l] = []Info{n.self}
				n.preds[l] = n.self
				n.publishRoutingLocked()
				n.mu.Unlock()
				continue
			}
		}
		resp, err := n.lookupFrom(ctx, seed, uint64(n.space.Sub(id.ID(n.self.ID), 1)), prefix)
		if err != nil {
			return fmt.Errorf("netnode: join lookup at level %d: %w", l, err)
		}
		n.mu.Lock()
		if resp.Succ.IsZero() || resp.Succ.ID == n.self.ID {
			n.succs[l] = []Info{n.self}
			n.preds[l] = n.self
		} else {
			n.succs[l] = []Info{resp.Succ}
			n.preds[l] = resp.Pred
		}
		pred, succ := n.preds[l], n.succs[l][0]
		n.publishRoutingLocked()
		n.mu.Unlock()
		// Eagerly notify both ring neighbors (Section 2.3: nodes that would
		// erroneously skip the joiner are told right away).
		if succ.Addr != n.self.Addr {
			if note, err := transport.NewMessage(msgNotify, notifyReq{Level: l, From: n.self}); err == nil {
				_, _ = n.call(ctx, succ.Addr, note)
			}
		}
		if !pred.IsZero() && pred.Addr != n.self.Addr {
			if note, err := transport.NewMessage(msgNotify, notifyReq{Level: l, From: n.self, AsSuccessor: true}); err == nil {
				_, _ = n.call(ctx, pred.Addr, note)
			}
		}
	}
	if err := n.registerSelf(ctx); err != nil {
		return err
	}
	// Pull successor lists, announce ourselves, and build fingers.
	n.StabilizeOnce(ctx)
	n.FixFingers(ctx)
	n.StabilizeOnce(ctx)
	return nil
}

// registerSelf records the node in the membership registry of every domain
// on its chain.
func (n *Node) registerSelf(ctx context.Context) error {
	for l := 0; l <= n.levels; l++ {
		prefix := prefixAt(n.self.Name, l)
		key := domainKey(n.space, prefix)
		resp, err := n.lookupFrom(ctx, n.self, key, "")
		if err != nil {
			continue
		}
		req, err := transport.NewMessage(msgRegister, registerReq{Prefix: prefix, From: n.self})
		if err != nil {
			return err
		}
		if resp.Pred.Addr == n.self.Addr {
			n.registerLocal(prefix, n.self)
			continue
		}
		if _, err := n.call(ctx, resp.Pred.Addr, req); err != nil {
			continue
		}
	}
	return nil
}

// findMember locates a live member of the named domain via the registry.
func (n *Node) findMember(ctx context.Context, seed Info, prefix string) (Info, error) {
	key := domainKey(n.space, prefix)
	resp, err := n.lookupFrom(ctx, seed, key, "")
	if err != nil {
		return Info{}, err
	}
	req, err := transport.NewMessage(msgMembers, membersReq{Prefix: prefix})
	if err != nil {
		return Info{}, err
	}
	raw, err := n.call(ctx, resp.Pred.Addr, req)
	if err != nil {
		return Info{}, err
	}
	var members membersResp
	if err := raw.Decode(&members); err != nil {
		return Info{}, err
	}
	for _, m := range members.Members {
		if m.Addr == n.self.Addr {
			continue
		}
		if _, err := n.pingAddr(ctx, m.Addr); err == nil {
			return m, nil
		}
	}
	return Info{}, fmt.Errorf("netnode: no live member of %q", prefix)
}

func (n *Node) registerLocal(prefix string, who Info) {
	n.mu.Lock()
	defer n.mu.Unlock()
	members := n.registry[prefix]
	for i, m := range members {
		if m.Addr == who.Addr {
			members[i] = who
			return
		}
	}
	if len(members) >= n.cfg.RegistrySize {
		// Replace a random entry; stale entries get filtered by ping on use.
		members[n.rng.Intn(len(members))] = who
	} else {
		members = append(members, who)
	}
	n.registry[prefix] = members
}

func (n *Node) pingAddr(ctx context.Context, addr string) (Info, error) {
	req, err := transport.NewMessage(msgPing, nil)
	if err != nil {
		return Info{}, err
	}
	resp, err := n.call(ctx, addr, req)
	if err != nil {
		return Info{}, err
	}
	var info Info
	if err := resp.Decode(&info); err != nil {
		return Info{}, err
	}
	return info, nil
}

// Start launches the background maintenance loop.
func (n *Node) Start(interval time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.loopStop != nil || n.closed {
		return
	}
	n.loopStop = make(chan struct{})
	n.loopDone = make(chan struct{})
	go n.maintainLoop(interval, n.loopStop, n.loopDone)
}

func (n *Node) maintainLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	// Anti-entropy runs on a multiple of the maintenance tick: replica
	// divergence accrues slowly (it needs a missed push), so syncing every
	// round would spend tree exchanges on agreement.
	syncEvery := 4
	if n.cfg.SyncInterval > 0 {
		syncEvery = int((n.cfg.SyncInterval + interval - 1) / interval)
		if syncEvery < 1 {
			syncEvery = 1
		}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tick := 0
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(context.Background(), interval)
			n.StabilizeOnce(ctx)
			n.FixFingers(ctx)
			tick++
			if tick%syncEvery == 0 {
				n.AntiEntropyOnce(ctx)
			}
			cancel()
		case <-stop:
			return
		}
	}
}

// Close stops maintenance, the transport and the storage engine. It does
// not announce departure; use Leave for a graceful exit. A durable store is
// sealed, not emptied: reopening it under the same Config.Store recovers
// every acked write.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	stop, done := n.loopStop, n.loopDone
	n.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	err := n.tr.Close()
	if serr := n.store.Close(); err == nil {
		err = serr
	}
	return err
}

// Leave gracefully exits: stored items move to each item's new owner with
// their versions intact, and neighbors at every level are told to splice
// the node out. Close follows.
func (n *Node) Leave(ctx context.Context) error {
	// Snapshot the store first: ForEach holds the store's lock, and the
	// handoff RPCs below must not run under it.
	var items []canonstore.Entry
	n.store.ForEach(func(e canonstore.Entry) bool {
		items = append(items, e)
		return true
	})
	n.mu.Lock()
	globalSuccs := append([]Info(nil), n.succs[0]...)
	preds := append([]Info(nil), n.preds...)
	n.mu.Unlock()

	// Hand every item to the next owner within its home domain (storage
	// domain for values, access domain for pointer records).
	for _, item := range items {
		target, err := n.Lookup(ctx, uint64(n.space.Sub(id.ID(n.self.ID), 1)), entryHome(item))
		if err != nil || target.Addr == n.self.Addr {
			continue
		}
		req, err := transport.NewMessage(msgStoreV2, reqFromEntry(item, true))
		if err != nil {
			continue
		}
		_, _ = n.call(ctx, target.Addr, req)
	}
	// Tell per-level predecessors we are going, handing them our successor
	// lists as repair hints.
	req, err := transport.NewMessage(msgLeaving, leavingReq{From: n.self, Succs: globalSuccs})
	if err == nil {
		seen := make(map[string]bool)
		for _, p := range preds {
			if p.IsZero() || p.Addr == n.self.Addr || seen[p.Addr] {
				continue
			}
			seen[p.Addr] = true
			_, _ = n.call(ctx, p.Addr, req)
		}
	}
	return n.Close()
}

// Successors returns a copy of the node's successor list at a level.
func (n *Node) Successors(level int) []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	if level < 0 || level > n.levels {
		return nil
	}
	return append([]Info(nil), n.succs[level]...)
}

// Predecessor returns the node's predecessor at a level.
func (n *Node) Predecessor(level int) Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	if level < 0 || level > n.levels {
		return Info{}
	}
	return n.preds[level]
}

// Fingers returns a copy of the node's finger table.
func (n *Node) Fingers() []Info {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Info, 0, len(n.fingers))
	for _, f := range n.fingers {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
