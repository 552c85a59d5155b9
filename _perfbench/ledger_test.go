package main

import (
	"math"
	"testing"
)

// handBuilt is a span set with a known answer: one client Get that takes a
// two-hop lookup and a fetch, then background work with a replica push
// (store handler with a put and a sync) and a retried neighbors call, plus
// two decoy handlers the store spans must not be attributed to.
func handBuilt() []span {
	n := hashNonce
	return []span{
		{id: 1, start: 0, end: 1000, node: clientNode, peer: -1, kind: kindOp, name: "get"},
		{id: 2, parent: 1, start: 100, end: 900, node: clientNode, peer: 0, kind: kindCall, name: "lookup", nonce: n("c#1")},
		{id: 3, start: 200, end: 800, node: 0, peer: -1, kind: kindHandler, name: "lookup", nonce: n("c#1")},
		{id: 4, parent: 3, start: 300, end: 700, node: 0, peer: 1, kind: kindCall, name: "lookup", nonce: n("n0#1")},
		{id: 5, start: 400, end: 600, node: 1, peer: -1, kind: kindHandler, name: "lookup", nonce: n("n0#1")},
		{id: 6, parent: 1, start: 910, end: 990, node: clientNode, peer: 1, kind: kindCall, name: "fetch", nonce: n("c#2")},
		{id: 7, start: 930, end: 970, node: 1, peer: -1, kind: kindHandler, name: "fetch", nonce: n("c#2")},
		{id: 8, start: 940, end: 950, node: 1, peer: -1, kind: kindStore, name: storeGet},

		{id: 9, start: 2000, end: 3000, node: 2, peer: 1, kind: kindCall, name: "store2", nonce: n("n2#1")},
		{id: 10, start: 2100, end: 2900, node: 1, peer: -1, kind: kindHandler, name: "store2", nonce: n("n2#1")},
		{id: 11, start: 2200, end: 2300, node: 1, peer: -1, kind: kindStore, name: storePut},
		{id: 12, start: 2300, end: 2800, node: 1, peer: -1, kind: kindStore, name: storeSync},
		{id: 13, start: 3100, end: 3200, node: 2, peer: 3, kind: kindCall, name: "neighbors", nonce: n("n2#2"), err: true},
		{id: 14, start: 3300, end: 3400, node: 2, peer: 3, kind: kindCall, name: "neighbors", nonce: n("n2#2")},
		{id: 15, start: 3320, end: 3380, node: 3, peer: -1, kind: kindHandler, name: "neighbors", nonce: n("n2#2")},
		// Decoys on node 1: a lookup handler spanning the store calls (not a
		// store handler) and a fetch that ends before the put does.
		{id: 16, start: 2150, end: 2950, node: 1, peer: -1, kind: kindHandler, name: "lookup", nonce: n("x#1")},
		{id: 17, start: 2050, end: 2250, node: 1, peer: -1, kind: kindHandler, name: "fetch", nonce: n("x#2")},
	}
}

func TestAnalysePairsByNonceAndTime(t *testing.T) {
	spans := handBuilt()
	l := analyse(spans)
	idOf := func(i int) uint32 {
		if i < 0 {
			return 0
		}
		return spans[i].id
	}
	wantParent := map[uint32]uint32{
		2: 1, 3: 2, 4: 3, 5: 4, 6: 1, 7: 6, 8: 7,
		9: 0, 10: 9, 11: 10, 12: 10, 13: 0, 14: 0, 15: 14, 16: 0, 17: 0,
	}
	for i, s := range spans {
		if got := idOf(l.parent[i]); got != wantParent[s.id] {
			t.Errorf("span %d: parent %d, want %d", s.id, got, wantParent[s.id])
		}
		wantRoot := uint32(0)
		if s.id <= 8 {
			wantRoot = 1
		}
		if got := l.roots()[i]; got != wantRoot {
			t.Errorf("span %d: root %d, want %d", s.id, got, wantRoot)
		}
	}
	if got := idOf(l.handler[13]); got != 15 {
		t.Errorf("retried call 14 pairs with handler %d, want 15", got)
	}
	if got := l.handler[12]; got != -1 {
		t.Errorf("failed attempt 13 pairs with span %d, want none", idOf(got))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := handBuilt()
	l := analyse(spans)
	want := map[uint32]int64{
		1:  1000 - 800 - 80, // op minus its two calls
		2:  800 - 600,       // call minus its handler: the wire time
		3:  600 - 400,       // handler minus its forward
		5:  200,             // leaf handler
		7:  40 - 10,         // fetch handler minus its store get
		10: 800 - 100 - 500, // store handler minus put and sync
		14: 100 - 60,
	}
	for i, s := range spans {
		if w, ok := want[s.id]; ok {
			if got := l.selfNs(i); got != w {
				t.Errorf("span %d: self %d ns, want %d", s.id, got, w)
			}
		}
	}
}

func TestLedgerMetrics(t *testing.T) {
	l := analyse(handBuilt())
	m := l.metrics(ledgerInput{wallNs: 4000, procs: 2, walBytes: 300})
	want := map[string]float64{
		"client.get.rpcs_per_op":          2,
		"client.get.levels_per_op":        1,
		"client.put.rpcs_per_op":          0,
		"transport.calls_per_op":          3,
		"transport.wire_us.p50":           0.2,
		"transport.retry_ratio":           1.0 / 6,
		"transport.call_error_ratio":      1.0 / 6,
		"netnode.lookup.hops_per_op":      1,
		"netnode.lookup.self_us.p50":      0.2,
		"netnode.fetch.self_us.p50":       0.03,
		"netnode.store.self_us.p50":       0,
		"netnode.bg.rpcs_per_s":           3 / 4e-6,
		"netnode.bg.rpcs_per_s.store2":    1 / 4e-6,
		"netnode.bg.rpcs_per_s.neighbors": 2 / 4e-6,
		"netnode.bg.rpcs_per_s.lookup":    0,
		// bg self: calls 200+100+40, handlers 200+60+800+200, store 100+500.
		"netnode.bg.busy_share":    2200.0 / (4000 * 2),
		"canonstore.put_us.p50":    0.1,
		"canonstore.sync_us.p50":   0.5,
		"canonstore.applied_ratio": 0,
		// The background sync shows against the one client op, a Get.
		"canonstore.syncs_per_op":     1,
		"canonstore.wal_bytes_per_op": 300,
	}
	for name, w := range want {
		if got, ok := m[name]; !ok || math.Abs(got-w) > 1e-9*math.Max(1, math.Abs(w)) {
			t.Errorf("%s = %g (present %t), want %g", name, got, ok, w)
		}
	}
	for name := range m {
		if _, ok := perLayerUnits[name]; !ok {
			t.Errorf("ledger emits %s, which has no unit", name)
		}
	}
}
