package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"
)

// The cluster shape every workload runs on: four leaf domains under two
// top-level domains, two nodes in each leaf.
var leaves = []string{"t0/l0", "t0/l1", "t1/l0", "t1/l1"}

const (
	nodesPerLeaf = 2
	numNodes     = 4 * nodesPerLeaf
	// tick is canond's default -stabilize interval.
	tick = 2 * time.Second
)

// domainAt returns the domain at the given depth of a leaf's chain: 0 is the
// global domain, 1 the top-level domain, 2 the leaf itself.
func domainAt(leaf string, level int) string {
	switch level {
	case 0:
		return ""
	case 1:
		return leaf[:2]
	default:
		return leaf
	}
}

// workload is one traffic mix. Everything in it is fixed; the seed only
// draws node IDs, keys, values and the arrival schedule.
type workload struct {
	name      string
	getShare  float64 // share of Gets in the mix; the rest are Puts
	valueSize int     // bytes per value
	items     int     // keyed items, all stored before the first timed request
	rf        int     // netnode ReplicationFactor
	maintain  bool    // run every node's maintenance loop at canond's tick
	sample    float64 // netnode TraceSampleRate
	rate      float64 // open-loop arrival rate, ops/s
}

var workloads = []workload{
	// Routing, transport and codec with almost no store work: Gets of
	// preloaded items whose storage domains are split across leaf,
	// top-level and global, so a Get resolves after 1, 2 or 3 probes. A
	// Get costs the same whatever the item count; the preload fsyncs once
	// per item, and with 4096 items it made set-up follow the shared disk
	// (set-ups in one run took 0.5 s or 1.0 s as the disk's load came and
	// went).
	{
		name:      "read-hier",
		getShare:  1,
		valueSize: 128,
		items:     1024,
		rf:        1,
		rate:      2000,
	},
	// What a deployment runs: replica push, stabilization, anti-entropy and
	// their JSON-encoded bodies compete with foreground Gets and Puts. Each
	// round re-pushes every primary, so background work per tick grows with
	// the item count; 256 items keep a round well inside the 2 s tick (with
	// 4096 rounds overran it on a 2-vCPU machine).
	{
		name:      "steady-replicated",
		getShare:  0.8,
		valueSize: 128,
		items:     256,
		rf:        3,
		maintain:  true,
		sample:    0.01,
		rate:      300,
	},
}

// minWindowSamples is how many latencies a window needs for its p99 to
// have ten samples beyond it; minP50Samples is how many its p50 needs.
const (
	minWindowSamples = 1000
	minP50Samples    = 250
)

// cycle is the period the workload's background load repeats with: one
// maintenance tick when maintenance runs, else one second. Windows are
// whole cycles, so every window holds the same share of maintenance.
func (w *workload) cycle() time.Duration {
	if w.maintain {
		return tick
	}
	return time.Second
}

// p99Cycles is how many cycles a window for a p99 spans: enough that a
// Poisson count at the workload's rate stays above minWindowSamples. A
// p50 is taken over single cycles, which at every workload's rate hold
// well over minP50Samples, so its median spans as many windows as the
// open loop has cycles.
func (w *workload) p99Cycles() int {
	return int(math.Ceil(1.25 * minWindowSamples / w.rate / w.cycle().Seconds()))
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// item is one key the workload reads or writes. Its storage domain is also
// its access domain, so a Put places no pointer record.
type item struct {
	key     uint64
	leaf    int    // index into leaves: where its clients enter
	storage string // the leaf, its top-level domain, or "" (global)
}

// makeItems draws n distinct keys in the 32-bit identifier space, each with
// a home leaf and a storage domain at one depth of that leaf's chain, so
// Gets resolve after one, two or three probes. The (leaf, depth) pairs are
// dealt out in equal shares, in a seeded order: drawn independently, the
// share of global items among 256 varied by about a tenth between seeds,
// and each seed's throughput with it.
func makeItems(rng *rand.Rand, n int) []item {
	const depths = 3
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i % (len(leaves) * depths)
	}
	rng.Shuffle(n, func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
	seen := make(map[uint64]bool, n)
	items := make([]item, 0, n)
	for len(items) < n {
		key := uint64(rng.Uint32())
		if key == 0 || seen[key] {
			continue
		}
		seen[key] = true
		leaf, depth := cells[len(items)]/depths, cells[len(items)]%depths
		items = append(items, item{
			key:     key,
			leaf:    leaf,
			storage: domainAt(leaves[leaf], depth),
		})
	}
	return items
}

type opKind uint8

const (
	opGet opKind = iota
	opPut
)

func (k opKind) String() string {
	if k == opGet {
		return "get"
	}
	return "put"
}

// op is one request: which item, through which node of the item's leaf.
type op struct {
	kind opKind
	item int
	via  int // node index
}

// opGen draws the workload's request stream from its own seeded source:
// keys uniformly over the items.
type opGen struct {
	w   *workload
	n   int
	rng *rand.Rand
}

func newOpGen(w *workload, n int, seed int64) *opGen {
	return &opGen{w: w, n: n, rng: rand.New(rand.NewSource(seed))}
}

func (g *opGen) next(items []item) op {
	o := op{kind: opPut}
	if g.rng.Float64() < g.w.getShare {
		o.kind = opGet
	}
	o.item = g.rng.Intn(g.n)
	o.via = items[o.item].leaf*nodesPerLeaf + g.rng.Intn(nodesPerLeaf)
	return o
}

// makeValue builds the value Put number seq writes under key: the key and
// seq in the first 16 bytes, then bytes derived from (seed, key, seq). seq 0
// is the preloaded value.
func makeValue(seed int64, key, seq uint64, size int) []byte {
	v := make([]byte, size)
	fillValue(v, seed, key, seq)
	return v
}

func fillValue(v []byte, seed int64, key, seq uint64) {
	binary.LittleEndian.PutUint64(v[0:], key)
	binary.LittleEndian.PutUint64(v[8:], seq)
	x := uint64(seed) ^ key*0x9E3779B97F4A7C15 ^ seq*0xC2B2AE3D27D4EB4F
	var w [8]byte
	for i := 16; i < len(v); i += 8 {
		// splitmix64
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(w[:], z^(z>>31))
		copy(v[i:], w[:])
	}
}

// putState is what the generator knows about one Put.
type putState uint8

const (
	putPending putState = iota
	putAcked
	putFailed // timed out or errored: it may or may not have been applied
)

type putRec struct {
	seq        uint64
	start, end int64 // ns on the run clock
	state      putState
}

// oracle knows every value the cluster may legitimately return: the
// preloaded value of each item and every Put issued so far. Any other
// value read back fails the run.
type oracle struct {
	seed int64
	size int

	mu   sync.Mutex
	seq  uint64
	puts map[uint64][]putRec // by key
}

func newOracle(seed int64, w *workload) *oracle {
	return &oracle{seed: seed, size: w.valueSize, puts: make(map[uint64][]putRec)}
}

// beginPut registers a Put before it is sent and returns its sequence
// number and value.
func (o *oracle) beginPut(key uint64, start int64) (uint64, []byte) {
	o.mu.Lock()
	o.seq++
	seq := o.seq
	o.puts[key] = append(o.puts[key], putRec{seq: seq, start: start})
	o.mu.Unlock()
	return seq, makeValue(o.seed, key, seq, o.size)
}

// endPut records how a Put ended.
func (o *oracle) endPut(key, seq uint64, end int64, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	recs := o.puts[key]
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].seq == seq {
			recs[i].end = end
			recs[i].state = putFailed
			if ok {
				recs[i].state = putAcked
			}
			return
		}
	}
}

// check verifies a value read for key. Every value must be byte-exact for
// its (key, seq) and come from the preload or a Put already sent. With
// strict set, a value from a Put must also not be older than an acked Put
// that started after it was acked.
func (o *oracle) check(key uint64, v []byte, strict bool) error {
	if len(v) != o.size {
		return fmt.Errorf("key %x: value of %d bytes, want %d", key, len(v), o.size)
	}
	gotKey := binary.LittleEndian.Uint64(v[0:])
	seq := binary.LittleEndian.Uint64(v[8:])
	if gotKey != key {
		return fmt.Errorf("key %x: read the value of key %x", key, gotKey)
	}
	want := make([]byte, o.size)
	fillValue(want, o.seed, key, seq)
	if string(want) != string(v) {
		return fmt.Errorf("key %x: value of put %d is corrupt", key, seq)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	recs := o.puts[key]
	if seq == 0 {
		if strict && lastAckedStart(recs) > 0 {
			return fmt.Errorf("key %x: read the preload value after an acked put", key)
		}
		return nil
	}
	for _, r := range recs {
		if r.seq != seq {
			continue
		}
		if strict && r.state == putAcked && r.end < lastAckedStart(recs) {
			return fmt.Errorf("key %x: read put %d, superseded by a later acked put", key, seq)
		}
		return nil
	}
	return fmt.Errorf("key %x: read put %d, which was never sent for this key", key, seq)
}

// lastAckedStart is the latest start time among acked Puts (0 if none).
func lastAckedStart(recs []putRec) int64 {
	var last int64
	for _, r := range recs {
		if r.state == putAcked && r.start > last {
			last = r.start
		}
	}
	return last
}
