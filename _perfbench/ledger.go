package main

import (
	"sort"
)

// storeHandlers are the message types whose handlers call into the store;
// a store span is attributed to the innermost one of these containing it
// on its node.
var storeHandlers = map[string]bool{
	"store": true, "store2": true, "fetch": true,
	"syncpull": true, "synctree": true, "synckeys": true, "repair": true,
}

// bgTypes are the message types the per-type background rate names; any
// other type counts under "other".
var bgTypes = []string{"lookup", "neighbors", "notify", "ping", "register", "members",
	"store2", "synctree", "synckeys", "syncpull"}

// perLayerUnits is every metric the traced run reports, with its unit.
var perLayerUnits = map[string]string{
	"loadgen.late_p99_ms":             "ms",
	"loadgen.inflight_max":            "count",
	"client.get.rpcs_per_op":          "1/op",
	"client.get.levels_per_op":        "1/op",
	"client.put.rpcs_per_op":          "1/op",
	"transport.wire_us.p50":           "us",
	"transport.wire_us.p99":           "us",
	"transport.calls_per_op":          "1/op",
	"transport.retry_ratio":           "ratio",
	"transport.call_error_ratio":      "ratio",
	"netnode.lookup.hops_per_op":      "1/op",
	"netnode.lookup.self_us.p50":      "us",
	"netnode.fetch.self_us.p50":       "us",
	"netnode.store.self_us.p50":       "us",
	"netnode.bg.rpcs_per_s":           "1/s",
	"netnode.bg.rpcs_per_s.lookup":    "1/s",
	"netnode.bg.rpcs_per_s.neighbors": "1/s",
	"netnode.bg.rpcs_per_s.notify":    "1/s",
	"netnode.bg.rpcs_per_s.ping":      "1/s",
	"netnode.bg.rpcs_per_s.register":  "1/s",
	"netnode.bg.rpcs_per_s.members":   "1/s",
	"netnode.bg.rpcs_per_s.store2":    "1/s",
	"netnode.bg.rpcs_per_s.synctree":  "1/s",
	"netnode.bg.rpcs_per_s.synckeys":  "1/s",
	"netnode.bg.rpcs_per_s.syncpull":  "1/s",
	"netnode.bg.rpcs_per_s.other":     "1/s",
	"netnode.bg.busy_share":           "ratio",
	"canonstore.put_us.p50":           "us",
	"canonstore.sync_us.p50":          "us",
	"canonstore.sync_us.p99":          "us",
	"canonstore.syncs_per_op":         "1/op",
	"canonstore.syncs_per_s":          "1/s",
	"canonstore.applied_ratio":        "ratio",
	"canonstore.wal_bytes_per_op":     "B/op",
	"proc.cpu_ms_per_op":              "ms/op",
	"proc.allocs_per_op":              "1/op",
	"proc.gc_cpu_share":               "ratio",
	"bench.trace_overhead_pct":        "%",
}

// storeScanLimit bounds how many earlier handlers on a node are tried when
// attributing a store span; the handlers that touch the store last
// milliseconds, far fewer than this many start while one is open.
const storeScanLimit = 512

// ledger is an analysed span set: every span's resolved parent and root.
type ledger struct {
	spans    []span
	parent   []int // index of the parent span, -1 for none
	root     []int // index of the root client-op span, -1 for background work
	handler  []int // kindCall: index of the paired callee handler, -1 if none
	children [][]int
}

// analyse resolves parents. Context-linked parents come straight from the
// span; a handler's parent is the Call with its nonce to its node that
// contains it in time; a store span's parent is the latest-starting store
// handler on its node that contains it in time.
func analyse(spans []span) *ledger {
	n := len(spans)
	l := &ledger{spans: spans, parent: make([]int, n), root: make([]int, n),
		handler: make([]int, n), children: make([][]int, n)}
	byID := make(map[uint32]int, n)
	for i, s := range spans {
		byID[s.id] = i
	}
	type callKey struct {
		nonce uint64
		node  int8
	}
	calls := make(map[callKey][]int)
	perNode := make(map[int8][]int) // store-touching handlers by node
	for i, s := range spans {
		l.parent[i], l.handler[i] = -1, -1
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			l.parent[i] = p
		}
		switch s.kind {
		case kindCall:
			k := callKey{s.nonce, s.peer}
			calls[k] = append(calls[k], i)
		case kindHandler:
			if storeHandlers[s.name] {
				perNode[s.node] = append(perNode[s.node], i)
			}
		}
	}
	for i, s := range spans {
		if s.kind != kindHandler {
			continue
		}
		best := -1
		for _, c := range calls[callKey{s.nonce, s.node}] {
			cs := spans[c]
			if cs.start <= s.start && s.end <= cs.end && (best < 0 || cs.start > spans[best].start) {
				best = c
			}
		}
		if best >= 0 {
			l.parent[i] = best
			l.handler[best] = i
		}
	}
	for _, hs := range perNode {
		sort.Slice(hs, func(a, b int) bool { return spans[hs[a]].start < spans[hs[b]].start })
	}
	for i, s := range spans {
		if s.kind != kindStore {
			continue
		}
		hs := perNode[s.node]
		j := sort.Search(len(hs), func(k int) bool { return spans[hs[k]].start > s.start })
		for k := j - 1; k >= 0 && k >= j-storeScanLimit; k-- {
			if spans[hs[k]].end >= s.end {
				l.parent[i] = hs[k]
				break
			}
		}
	}
	for i := range spans {
		if p := l.parent[i]; p >= 0 {
			l.children[p] = append(l.children[p], i)
		}
	}
	const unresolved = -2
	for i := range l.root {
		l.root[i] = unresolved
	}
	var chain []int
	for i := range spans {
		j := i
		chain = chain[:0]
		for l.root[j] == unresolved && l.parent[j] >= 0 && len(chain) <= n {
			chain = append(chain, j)
			j = l.parent[j]
		}
		r := l.root[j]
		if r == unresolved {
			r = -1
			if spans[j].kind == kindOp {
				r = j
			}
			l.root[j] = r
		}
		for _, k := range chain {
			l.root[k] = r
		}
	}
	return l
}

// roots returns each span's root op id (0 for background work).
func (l *ledger) roots() []uint32 {
	out := make([]uint32, len(l.spans))
	for i, r := range l.root {
		if r >= 0 {
			out[i] = l.spans[r].id
		}
	}
	return out
}

// selfNs is a span's duration minus the part of it its children cover.
func (l *ledger) selfNs(i int) int64 {
	s := l.spans[i]
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(l.children[i]))
	for _, c := range l.children[i] {
		a, b := l.spans[c].start, l.spans[c].end
		if a < s.start {
			a = s.start
		}
		if b > s.end {
			b = s.end
		}
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	covered, end := int64(0), s.start
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			covered += v.b - v.a
			end = v.b
		}
	}
	return s.end - s.start - covered
}

// ledgerInput is what the ledger needs beyond the spans.
type ledgerInput struct {
	wallNs   int64 // how long the tracer was armed
	procs    int   // GOMAXPROCS
	walBytes int64 // WAL bytes appended, from every Disk's own registry
}

// metrics derives the per-layer ledger. Foreground figures cover spans
// rooted at a client op; background figures cover everything else.
func (l *ledger) metrics(in ledgerInput) map[string]float64 {
	var (
		gets, puts, ops                        float64
		getRPCs, getLevels, putRPCs            float64
		calls, fgCalls, callErrs, hops         float64
		wire, lookupSelf, fetchSelf, storeSelf []float64
		putUs, syncUs                          []float64
		storePuts, changed                     float64
		bgRPCs                                 float64
		bgByType                               = make(map[string]float64)
		bgSelfNs                               int64
	)
	type nonceKey struct {
		nonce uint64
		node  int8
	}
	nonces := make(map[nonceKey]bool)
	for i, s := range l.spans {
		fg := l.root[i] >= 0
		var rootName string
		if fg {
			rootName = l.spans[l.root[i]].name
		}
		if !fg {
			bgSelfNs += l.selfNs(i)
		}
		switch s.kind {
		case kindOp:
			ops++
			if s.name == opGet.String() {
				gets++
			} else {
				puts++
			}
		case kindCall:
			calls++
			nonces[nonceKey{s.nonce, s.node}] = true
			if s.err {
				callErrs++
			}
			if !fg {
				bgRPCs++
				t := "other"
				for _, bt := range bgTypes {
					if s.name == bt {
						t = bt
					}
				}
				bgByType[t]++
				continue
			}
			fgCalls++
			if h := l.handler[i]; h >= 0 {
				hs := l.spans[h]
				wire = append(wire, float64((s.end-s.start)-(hs.end-hs.start))/1e3)
			}
			switch {
			case s.node == clientNode && rootName == opGet.String():
				getRPCs++
				if s.name == "lookup" {
					getLevels++
				}
			case s.node == clientNode:
				putRPCs++
			case s.name == "lookup":
				hops++
			}
		case kindHandler:
			if !fg {
				continue
			}
			us := float64(l.selfNs(i)) / 1e3
			switch s.name {
			case "lookup":
				lookupSelf = append(lookupSelf, us)
			case "fetch":
				fetchSelf = append(fetchSelf, us)
			case "store", "store2":
				storeSelf = append(storeSelf, us)
			}
		case kindStore:
			us := float64(s.end-s.start) / 1e3
			switch s.name {
			case storePut:
				storePuts++
				putUs = append(putUs, us)
				if s.changed {
					changed++
				}
			case storeSync:
				syncUs = append(syncUs, us)
			}
		}
	}
	wallS := float64(in.wallNs) / 1e9
	p50 := func(xs []float64) float64 { return quantile(sortedCopy(xs), 0.50) }
	p99 := func(xs []float64) float64 { return quantile(sortedCopy(xs), 0.99) }
	m := map[string]float64{
		"client.get.rpcs_per_op":      ratio(getRPCs, gets),
		"client.get.levels_per_op":    ratio(getLevels, gets),
		"client.put.rpcs_per_op":      ratio(putRPCs, puts),
		"transport.wire_us.p50":       p50(wire),
		"transport.wire_us.p99":       p99(wire),
		"transport.calls_per_op":      ratio(fgCalls, ops),
		"transport.retry_ratio":       ratio(calls-float64(len(nonces)), calls),
		"transport.call_error_ratio":  ratio(callErrs, calls),
		"netnode.lookup.hops_per_op":  ratio(hops, ops),
		"netnode.lookup.self_us.p50":  p50(lookupSelf),
		"netnode.fetch.self_us.p50":   p50(fetchSelf),
		"netnode.store.self_us.p50":   p50(storeSelf),
		"netnode.bg.rpcs_per_s":       ratio(bgRPCs, wallS),
		"netnode.bg.busy_share":       ratio(float64(bgSelfNs), float64(in.wallNs)*float64(in.procs)),
		"canonstore.put_us.p50":       p50(putUs),
		"canonstore.sync_us.p50":      p50(syncUs),
		"canonstore.sync_us.p99":      p99(syncUs),
		"canonstore.syncs_per_op":     ratio(float64(len(syncUs)), ops),
		"canonstore.syncs_per_s":      ratio(float64(len(syncUs)), wallS),
		"canonstore.applied_ratio":    ratio(changed, storePuts),
		"canonstore.wal_bytes_per_op": ratio(float64(in.walBytes), ops),
	}
	for _, t := range append(bgTypes, "other") {
		m["netnode.bg.rpcs_per_s."+t] = ratio(bgByType[t], wallS)
	}
	return m
}
