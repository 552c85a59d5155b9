package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/canon-dht/canon/internal/canonstore"
	"github.com/canon-dht/canon/internal/transport"
)

// Span kinds: one per layer boundary the traced run times.
const (
	kindOp      uint8 = iota // a client operation (loadgen → netnode.Client)
	kindCall                 // transport.Transport.Call, on the caller
	kindHandler              // the handler passed to Transport.Serve, on the callee
	kindStore                // a canonstore.Store method
)

var kindNames = [...]string{"op", "call", "handler", "store"}

// Store method names carried by kindStore spans.
const (
	storePut     = "put"
	storeGet     = "get"
	storeSync    = "sync"
	storeForEach = "foreach"
	storeDelete  = "delete"
)

// clientNode is the node index spans of the benchmark's own client carry.
const clientNode = numNodes

// span is one timed crossing of a layer boundary. Parents link through a
// context value the Serve decorator sets; a handler's parent (the remote
// Call) is found afterwards through the message nonce, and a store span's
// parent (it has no context) through time containment on its node.
type span struct {
	id, parent uint32 // parent 0 = none known at record time
	start, end int64  // ns on the tracer's clock
	node       int8   // node index; clientNode for the benchmark's client
	peer       int8   // kindCall: the callee's node index (-1 unknown)
	kind       uint8
	name       string // op kind, message type or store method
	nonce      uint64 // kindCall and kindHandler: FNV-1a hash of the message nonce
	err        bool   // kindCall: the transport returned an error
	changed    bool   // kindStore put: the write changed stored state
}

type spanCtxKey struct{}

// tracer records spans while armed. The decorators it hands out pass calls
// straight through while it is disarmed.
type tracer struct {
	epoch time.Time
	armed atomic.Bool
	ids   atomic.Uint32

	mu        sync.Mutex
	spans     []span
	limit     int  // spans kept per arming
	ring      bool // past limit, overwrite the oldest span instead of stopping
	next      int  // ring: the slot the next span overwrites
	truncated bool
	addrs     map[string]int8   // transport address → node index; see nodeOf
	names     map[string]string // interned span names: decoded message types are fresh strings
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), addrs: make(map[string]int8), names: make(map[string]string)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if name, ok := t.names[s.name]; ok {
		s.name = name
	} else {
		t.names[s.name] = s.name
	}
	switch {
	case len(t.spans) < t.limit:
		t.spans = append(t.spans, s)
	case t.ring:
		t.spans[t.next] = s
		t.next = (t.next + 1) % t.limit
	default:
		t.truncated = true
	}
}

// arm starts recording into a fresh span set of at most limit spans. A
// ring keeps the newest limit spans: it costs what recording costs, in
// bounded memory, for measuring the tracing overhead.
func (t *tracer) arm(limit int, ring bool) {
	t.mu.Lock()
	t.spans = make([]span, 0, 1<<16)
	t.limit, t.ring, t.next, t.truncated = limit, ring, 0, false
	t.mu.Unlock()
	t.armed.Store(true)
}

// disarm stops recording and returns what was recorded.
func (t *tracer) disarm() ([]span, bool) {
	t.armed.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	s, tr := t.spans, t.truncated
	t.spans = nil
	return s, tr
}

// nodeOf maps a Call's destination to its node. addrs is complete before
// the tracer is first armed and never written after, and only armed paths
// read it, so it needs no lock.
func (t *tracer) nodeOf(addr string) int8 {
	if n, ok := t.addrs[addr]; ok {
		return n
	}
	return -1
}

// hashNonce keeps a span from retaining the nonce string; pairing by a
// 64-bit hash mis-pairs with negligible probability at these span counts.
func hashNonce(nonce string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(nonce); i++ {
		h ^= uint64(nonce[i])
		h *= 1099511628211
	}
	return h
}

func parentOf(ctx context.Context) uint32 {
	id, _ := ctx.Value(spanCtxKey{}).(uint32)
	return id
}

// beginOp opens a client-operation span; the returned context carries it
// to the client transport's Call spans.
func (t *tracer) beginOp(ctx context.Context) (context.Context, uint32, int64) {
	if t == nil || !t.armed.Load() {
		return ctx, 0, 0
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, spanCtxKey{}, id), id, t.now()
}

func (t *tracer) endOp(id uint32, start int64, kind opKind, failed bool) {
	if id == 0 {
		return
	}
	t.add(span{id: id, start: start, end: t.now(), node: clientNode, peer: -1,
		kind: kindOp, name: kind.String(), err: failed})
}

// tracedTransport times Call on the caller and the served handler on the
// callee. It sees only the public Transport interface.
type tracedTransport struct {
	inner transport.Transport
	t     *tracer
	node  int8
}

func (t *tracer) wrapTransport(inner transport.Transport, node int) transport.Transport {
	t.addrs[inner.Addr()] = int8(node)
	return &tracedTransport{inner: inner, t: t, node: int8(node)}
}

func (tt *tracedTransport) Addr() string { return tt.inner.Addr() }

func (tt *tracedTransport) Call(ctx context.Context, addr string, msg transport.Message) (transport.Message, error) {
	t := tt.t
	if !t.armed.Load() {
		return tt.inner.Call(ctx, addr, msg)
	}
	id, start := t.ids.Add(1), t.now()
	resp, err := tt.inner.Call(ctx, addr, msg)
	t.add(span{id: id, parent: parentOf(ctx), start: start, end: t.now(), node: tt.node,
		peer: t.nodeOf(addr), kind: kindCall, name: msg.Type, nonce: hashNonce(msg.Nonce), err: err != nil})
	return resp, err
}

func (tt *tracedTransport) Serve(h transport.Handler) {
	t := tt.t
	tt.inner.Serve(func(ctx context.Context, from string, msg transport.Message) (transport.Message, error) {
		if !t.armed.Load() {
			return h(ctx, from, msg)
		}
		id, start := t.ids.Add(1), t.now()
		resp, err := h(context.WithValue(ctx, spanCtxKey{}, id), from, msg)
		t.add(span{id: id, start: start, end: t.now(), node: tt.node, peer: -1,
			kind: kindHandler, name: msg.Type, nonce: hashNonce(msg.Nonce)})
		return resp, err
	})
}

func (tt *tracedTransport) Close() error { return tt.inner.Close() }

// tracedStore times every Store method except Keys (a map length read).
// Store calls carry no context: spans record only their node.
type tracedStore struct {
	inner canonstore.Store
	t     *tracer
	node  int8
}

func (t *tracer) wrapStore(inner canonstore.Store, node int) canonstore.Store {
	return &tracedStore{inner: inner, t: t, node: int8(node)}
}

func (ts *tracedStore) record(name string, start int64, changed bool) {
	ts.t.add(span{id: ts.t.ids.Add(1), start: start, end: ts.t.now(), node: ts.node, peer: -1,
		kind: kindStore, name: name, changed: changed})
}

func (ts *tracedStore) Put(e canonstore.Entry) (bool, error) {
	if !ts.t.armed.Load() {
		return ts.inner.Put(e)
	}
	// A Put changes state unless an identical copy (same identity, version
	// and content) is already stored. The look-up runs before the span
	// starts, so it does not count as store time.
	var buf [4]canonstore.Entry
	identical := false
	for _, old := range ts.inner.Get(e.Key, buf[:0]) {
		if old.Storage == e.Storage && old.Access == e.Access && old.IsPointer() == e.IsPointer() &&
			old.Version == e.Version && old.Digest() == e.Digest() {
			identical = true
		}
	}
	start := ts.t.now()
	applied, err := ts.inner.Put(e)
	ts.record(storePut, start, applied && !identical)
	return applied, err
}

func (ts *tracedStore) Get(key uint64, dst []canonstore.Entry) []canonstore.Entry {
	if !ts.t.armed.Load() {
		return ts.inner.Get(key, dst)
	}
	start := ts.t.now()
	out := ts.inner.Get(key, dst)
	ts.record(storeGet, start, false)
	return out
}

func (ts *tracedStore) Delete(key uint64, storage, access string, pointer bool) (bool, error) {
	if !ts.t.armed.Load() {
		return ts.inner.Delete(key, storage, access, pointer)
	}
	start := ts.t.now()
	existed, err := ts.inner.Delete(key, storage, access, pointer)
	ts.record(storeDelete, start, existed)
	return existed, err
}

func (ts *tracedStore) Keys() int { return ts.inner.Keys() }

func (ts *tracedStore) ForEach(fn func(canonstore.Entry) bool) {
	if !ts.t.armed.Load() {
		ts.inner.ForEach(fn)
		return
	}
	start := ts.t.now()
	ts.inner.ForEach(fn)
	ts.record(storeForEach, start, false)
}

func (ts *tracedStore) Sync() error {
	if !ts.t.armed.Load() {
		return ts.inner.Sync()
	}
	start := ts.t.now()
	err := ts.inner.Sync()
	ts.record(storeSync, start, false)
	return err
}

func (ts *tracedStore) Close() error { return ts.inner.Close() }

// writeSpans writes the analysed spans as gzipped tab-separated lines:
// id, parent, root, kind, name, node, peer, start_ns, end_ns, nonce hash,
// err.
func writeSpans(path string, spans []span, roots []uint32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\troot\tkind\tname\tnode\tpeer\tstart_ns\tend_ns\tnonce\terr")
	for i, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\t%016x\t%t\n", s.id, s.parent, roots[i],
			kindNames[s.kind], s.name, s.node, s.peer, s.start, s.end, s.nonce, s.err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
