package netnode

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/id"
	"github.com/canon-dht/canon/internal/transport"
)

// replCluster is an in-memory RF 3 cluster over two levels (four "east" and
// four "west" nodes), every node behind a Faulty wrapper so a test can cut
// single links.
type replCluster struct {
	bus    *transport.Bus
	rng    *rand.Rand
	nodes  []*Node
	faulty map[string]*transport.Faulty
}

// replRetry keeps calls over cut links from stalling a round.
var replRetry = RetryPolicy{MaxAttempts: 1, AttemptTimeout: time.Second}

func newReplCluster(t *testing.T, seed int64) *replCluster {
	t.Helper()
	c := &replCluster{bus: transport.NewBus(), rng: rand.New(rand.NewSource(seed)), faulty: map[string]*transport.Faulty{}}
	for i := 0; i < 8; i++ {
		name := "east"
		if i%2 == 1 {
			name = "west"
		}
		c.add(t, Config{Name: name, RandomID: true}, c.bus.Endpoint(fmt.Sprintf("repl-%d", i)))
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			_ = n.Close()
		}
	})
	c.settle(12)
	return c
}

// add creates a node on ep and joins it through node 0.
func (c *replCluster) add(t *testing.T, cfg Config, ep transport.Transport) *Node {
	t.Helper()
	addr := ep.Addr()
	f := transport.NewFaulty(ep, int64(len(c.nodes)), transport.Faults{})
	cfg.Transport, cfg.Rand, cfg.ReplicationFactor, cfg.Retry = f, c.rng, 3, replRetry
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	contact := ""
	if len(c.nodes) > 0 {
		contact = c.nodes[0].Info().Addr
	}
	if err := n.Join(context.Background(), contact); err != nil {
		t.Fatalf("join %s: %v", addr, err)
	}
	c.nodes = append(c.nodes, n)
	c.faulty[addr] = f
	return n
}

func (c *replCluster) settle(rounds int) {
	ctx := context.Background()
	for r := 0; r < rounds; r++ {
		for _, n := range c.nodes {
			n.StabilizeOnce(ctx)
		}
		for _, n := range c.nodes {
			n.FixFingers(ctx)
		}
	}
}

// rpcCounts is the cluster-wide canon_rpc_received_total per message type
// plus the replication push counters.
type rpcCounts struct {
	store2, lookup                 int64
	chain, level, handoff, fullRnd int64
}

func (c *replCluster) counts() rpcCounts {
	var r rpcCounts
	for _, n := range c.nodes {
		r.store2 += n.m.receivedFixed[msgStoreV2].Value()
		r.lookup += n.m.receivedFixed[msgLookup].Value()
		r.chain += n.m.replicaPushes[pushChain].Value()
		r.level += n.m.replicaPushes[pushLevel].Value()
		r.handoff += n.m.replicaPushes[pushHandoff].Value()
		r.fullRnd += n.m.replicateFullRounds.Value()
	}
	return r
}

func (a rpcCounts) minus(b rpcCounts) rpcCounts {
	return rpcCounts{
		a.store2 - b.store2, a.lookup - b.lookup,
		a.chain - b.chain, a.level - b.level, a.handoff - b.handoff, a.fullRnd - b.fullRnd,
	}
}

// stabilizeRound runs one StabilizeOnce on every node and returns what it
// cost.
func (c *replCluster) stabilizeRound() rpcCounts {
	before := c.counts()
	for _, n := range c.nodes {
		n.StabilizeOnce(context.Background())
	}
	return c.counts().minus(before)
}

func (c *replCluster) byAddr(addr string) *Node {
	for _, n := range c.nodes {
		if n.Info().Addr == addr {
			return n
		}
	}
	return nil
}

// holds reports whether n stores a value for key at version v or newer.
func holds(n *Node, key, v uint64) bool {
	for _, e := range n.store.Get(key, nil) {
		if !e.IsPointer() && e.Version >= v {
			return true
		}
	}
	return false
}

// quietRounds stabilizes until a round sends no store2, failing the test if
// the cluster never gets there.
func (c *replCluster) quietRounds(t *testing.T) {
	t.Helper()
	for r := 0; r < 6; r++ {
		if c.stabilizeRound().store2 == 0 {
			return
		}
	}
	t.Fatal("replication never went quiet")
}

// TestReplicationQuietAfterConvergence: once every copy is in place, a
// stabilization round with no writes sends no store2 and no replication
// lookups. The lookups a round does send (membership registration) are
// measured on the same cluster before any data exists.
func TestReplicationQuietAfterConvergence(t *testing.T) {
	c := newReplCluster(t, 71)
	ctx := context.Background()
	base := c.stabilizeRound()
	if again := c.stabilizeRound(); again.lookup != base.lookup {
		t.Fatalf("empty rounds disagree on lookups: %d then %d", base.lookup, again.lookup)
	}
	for i := 0; i < 24; i++ {
		w := c.nodes[i%len(c.nodes)]
		storage := ""
		if i%3 == 0 {
			storage = w.Info().Name
		}
		if err := w.Put(ctx, uint64(c.rng.Uint32()), []byte(fmt.Sprintf("v%d", i)), storage, storage); err != nil {
			t.Fatal(err)
		}
	}
	c.quietRounds(t)
	got := c.stabilizeRound()
	if got.store2 != 0 || got.lookup != base.lookup {
		t.Fatalf("converged round: %d store2, %d lookups; want 0 store2 and the %d lookups of an empty round",
			got.store2, got.lookup, base.lookup)
	}
	if got.chain+got.level+got.handoff != 0 || got.fullRnd != 0 {
		t.Fatalf("converged round pushed %+v", got)
	}
}

// TestReplicationPushesOnlyTheChangedEntry: after one Put into a quiet
// cluster, the next round pushes exactly that entry's two chain replicas and
// its level copy (none when the primary also owns the key on its leaf ring),
// hands nothing back, and the round after is quiet again.
func TestReplicationPushesOnlyTheChangedEntry(t *testing.T) {
	c := newReplCluster(t, 72)
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if err := c.nodes[i%len(c.nodes)].Put(ctx, uint64(c.rng.Uint32()), []byte("x"), "", ""); err != nil {
			t.Fatal(err)
		}
	}
	c.quietRounds(t)

	key := uint64(c.rng.Uint32())
	if err := c.nodes[3].Put(ctx, key, []byte("fresh"), "", ""); err != nil {
		t.Fatal(err)
	}
	owner, err := c.nodes[3].Lookup(ctx, key, "")
	if err != nil {
		t.Fatal(err)
	}
	primary := c.byAddr(owner.Addr)
	v := primary.routing.Load()
	wantLevel := int64(1)
	if ownsInView(v, key, 1) {
		wantLevel = 0
	}

	got := c.stabilizeRound()
	if got.chain != 2 || got.level != wantLevel || got.handoff != 0 {
		t.Fatalf("round after one Put pushed chain=%d level=%d handoff=%d, want 2/%d/0",
			got.chain, got.level, got.handoff, wantLevel)
	}
	if got.store2 != got.chain+got.level {
		t.Fatalf("round after one Put received %d store2, want %d", got.store2, got.chain+got.level)
	}
	if after := c.stabilizeRound(); after.store2 != 0 {
		t.Fatalf("second round after one Put received %d store2, want 0", after.store2)
	}
}

// TestReplicationRetriesFailedPush: a chain push dropped by the transport
// leaves its entry pending, and the first round after the link heals
// delivers it.
func TestReplicationRetriesFailedPush(t *testing.T) {
	c := newReplCluster(t, 73)
	ctx := context.Background()
	c.quietRounds(t)

	key := uint64(c.rng.Uint32())
	if err := c.nodes[0].Put(ctx, key, []byte("lossy"), "", ""); err != nil {
		t.Fatal(err)
	}
	owner, err := c.nodes[0].Lookup(ctx, key, "")
	if err != nil {
		t.Fatal(err)
	}
	primary := c.byAddr(owner.Addr)
	chain := primary.replicaChain(ctx, primary.routing.Load(), 0)
	if len(chain) != 2 {
		t.Fatalf("replica chain %v, want 2 members", chain)
	}
	// Cut the link to the far chain member only: the chain walk asks the
	// near one, so placement is unchanged and only the push is lost.
	far := c.byAddr(chain[1].Addr)
	link := c.faulty[primary.Info().Addr]
	link.Partition(far.Info().Addr)
	primary.replicateOnce(ctx)
	version := primary.store.Get(key, nil)[0].Version
	if holds(far, key, version) {
		t.Fatal("far replica got the entry across a cut link")
	}
	if !holds(c.byAddr(chain[0].Addr), key, version) {
		t.Fatal("near replica missed the entry")
	}
	if !primary.replMem.Load().done[entryIdent{key: key}].pending {
		t.Fatal("entry with a failed push was not left pending")
	}

	link.Heal(far.Info().Addr)
	primary.replicateOnce(ctx)
	if !holds(far, key, version) {
		t.Fatal("pending entry did not reach the far replica after heal")
	}
	sent := primary.m.sentFixed[msgStoreV2].Value()
	primary.replicateOnce(ctx)
	if d := primary.m.sentFixed[msgStoreV2].Value() - sent; d != 0 {
		t.Fatalf("round after the retry sent %d store2, want 0", d)
	}
}

// TestReplicationFullRoundAfterRestart: a node reopened over its Disk store
// remembers nothing of its replication, so its first round pushes every
// primary again — here restoring chain copies that were lost while it was
// down.
func TestReplicationFullRoundAfterRestart(t *testing.T) {
	c := newReplCluster(t, 74)
	ctx := context.Background()
	dir := t.TempDir()
	st, err := canonstore.Open(dir, canonstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	d := c.add(t, Config{Name: "east", RandomID: true, Store: st}, keepOpen{c.bus.Endpoint("repl-disk")})
	c.settle(6)

	// d owns its own identifier at every level, so it is this key's primary.
	key := d.Info().ID
	if err := c.nodes[1].Put(ctx, key, []byte("durable"), "", ""); err != nil {
		t.Fatal(err)
	}
	c.quietRounds(t)
	chain := d.replicaChain(ctx, d.routing.Load(), 0)
	if len(chain) != 2 {
		t.Fatalf("replica chain %v, want 2 members", chain)
	}
	version := d.store.Get(key, nil)[0].Version
	for _, r := range chain {
		if !holds(c.byAddr(r.Addr), key, version) {
			t.Fatalf("replica %s missing the entry before the restart", r.Addr)
		}
	}

	// Crash-stop d, lose the chain copies, and bring d back on the same
	// address, data directory and identifier.
	self := d.Info()
	c.bus.SetDown(self.Addr, true)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	c.nodes = c.nodes[:len(c.nodes)-1]
	for _, r := range chain {
		if _, err := c.byAddr(r.Addr).store.Delete(key, "", "", false); err != nil {
			t.Fatal(err)
		}
	}
	st, err = canonstore.Open(dir, canonstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.bus.SetDown(self.Addr, false)
	back := c.add(t, Config{Name: self.Name, ID: self.ID, Store: st}, keepOpen{c.bus.Endpoint(self.Addr)})
	if !holds(back, key, version) {
		t.Fatal("restarted node lost its acked entry")
	}
	if full := back.m.replicateFullRounds.Value(); full < 1 {
		t.Fatalf("restarted node ran %d full rounds, want >= 1", full)
	}
	// The entry never changes, so only the restarted node's memory-free
	// rounds can put the copies back.
	c.settle(4)
	chain = back.replicaChain(ctx, back.routing.Load(), 0)
	if len(chain) != 2 {
		t.Fatalf("replica chain after restart %v, want 2 members", chain)
	}
	for _, r := range chain {
		if !holds(c.byAddr(r.Addr), key, version) {
			t.Fatalf("replica %s not restored after the restart", r.Addr)
		}
	}
}

// TestReplicationConcurrentRounds: rounds that overlap on one node share
// its replication memory without a lock held across their pushes; each
// still completes, and the cluster goes quiet afterwards.
func TestReplicationConcurrentRounds(t *testing.T) {
	c := newReplCluster(t, 75)
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if err := c.nodes[i%len(c.nodes)].Put(ctx, uint64(c.rng.Uint32()), []byte("x"), "", ""); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				for r := 0; r < 4; r++ {
					n.replicateOnce(ctx)
				}
			}(n)
		}
	}
	wg.Wait()
	c.quietRounds(t)
}

// keepOpen leaves the bus endpoint open when its node closes, so a
// restarted node can serve on the same address, as a restarted process
// would.
type keepOpen struct{ transport.Transport }

func (keepOpen) Close() error { return nil }

// TestChainReplicaRule pins when a node keeps a copy it does not own: the
// key's owner, by its view, must be among its first RF-1 successors.
func TestChainReplicaRule(t *testing.T) {
	space := id.DefaultSpace()
	info := func(x uint64) Info { return Info{ID: x, Addr: fmt.Sprintf("n%d", x)} }
	view := func(succs ...uint64) *routingView {
		list := make([]Info, len(succs))
		for i, s := range succs {
			list[i] = info(s)
		}
		return buildRoutingView(1, space, info(100), 0, geomCrescendo,
			[]Info{info(900)}, [][]Info{list}, nil, nil)
	}
	cases := []struct {
		name string
		v    *routingView
		key  uint64
		rf   int
		want bool
	}{
		{"owner is first successor", view(200, 300, 400, 500), 250, 3, true},
		{"owner is second successor", view(200, 300, 400, 500), 350, 3, true},
		{"owner is third successor", view(200, 300, 400, 500), 450, 3, false},
		{"owner wraps past the list", view(200, 300, 400, 500), 50, 3, false},
		{"replication off", view(200, 300, 400, 500), 250, 1, false},
		{"two-node leaf, RF 3", view(200), 250, 3, true},
		{"ring of RF nodes", view(200, 300), 350, 3, true},
		// A joined node the view has not learned yet (300 between 200 and
		// 400) only moves the owner closer: still on the chain.
		{"stale list missing a joiner", view(200, 400, 500), 350, 3, true},
		// A departed node still listed (200) pushes the owner a place
		// further out than it is: the copy is handed off, one redundant
		// push, never a lost one.
		{"stale list keeping a leaver", view(200, 300, 400), 450, 3, false},
	}
	for _, tc := range cases {
		if got := tc.v.chainReplicaOf(tc.key, 0, tc.rf); got != tc.want {
			t.Errorf("%s: chainReplicaOf(%d, rf %d) = %v, want %v", tc.name, tc.key, tc.rf, got, tc.want)
		}
	}
}
