package netnode

import (
	"sync"

	"github.com/canon-dht/canon/internal/telemetry"
)

// Metric names published by a live node. One canond process hosts one node,
// so names carry no node label; sharing a Registry across in-process nodes
// aggregates their series (see Config.Telemetry).
const (
	mnSent         = "canon_rpc_sent_total"
	mnReceived     = "canon_rpc_received_total"
	mnRetries      = "canon_rpc_retries_total"
	mnFailed       = "canon_rpc_failed_calls_total"
	mnRouteAround  = "canon_route_around_total"
	mnRPCLatency   = "canon_rpc_latency_seconds"
	mnRPCAttempts  = "canon_rpc_attempts"
	mnLookupHops   = "canon_lookup_hops"
	mnTraceStarted = "canon_traces_started_total"
	mnTraceDone    = "canon_traces_completed_total"
	mnStoreWrites  = "canon_store_writes_total"
	mnFetchReads   = "canon_fetch_reads_total"
	mnStoreItems   = "canon_store_items"
	mnSuspects     = "canon_suspect_peers"
	mnFetchErrors  = "canon_fetch_errors_total"
	mnReadRepairs  = "canon_read_repair_total"
	mnAERounds     = "canon_antientropy_rounds_total"
	mnAESyncs      = "canon_antientropy_syncs_total"
	mnAEPushed     = "canon_antientropy_keys_pushed_total"
	mnAEPulled     = "canon_antientropy_keys_pulled_total"
	mnReplPushes   = "canon_replica_pushes_total"
	mnReplFull     = "canon_replicate_full_rounds_total"
)

// replicaPushKind labels canon_replica_pushes_total: the three ways a
// replication round copies a record to another node.
type replicaPushKind int

const (
	pushChain   replicaPushKind = iota // primary to a replica-chain predecessor
	pushLevel                          // primary to a deeper ring's key owner
	pushHandoff                        // copy to the owner that took the key over
	numPushKinds
)

var replicaPushKindNames = [numPushKinds]string{"chain", "level", "handoff"}

// knownMsgTypes is every wire message type the node itself sends or serves.
// Their per-type counters are pre-registered at construction into immutable
// maps, so the RPC hot path looks them up without taking any lock; only
// unknown types (arbitrary bytes a fuzzer or a hostile peer puts in the Type
// field) fall back to the lazily populated, mutex-guarded overflow maps.
var knownMsgTypes = [...]string{
	msgLookup, msgNeighbors, msgNotify, msgPing, msgStore,
	msgFetch, msgRegister, msgMembers, msgLeaving,
	msgStoreV2, msgSyncTree, msgSyncKeys, msgSyncPull, msgRepair,
	msgBucketRef, msgLookahead,
}

// nodeMetrics holds the node's cached handles into its telemetry registry.
type nodeMetrics struct {
	reg *telemetry.Registry

	retries      *telemetry.Counter
	failedCalls  *telemetry.Counter
	routedAround *telemetry.Counter
	rpcLatency   *telemetry.Histogram
	rpcAttempts  *telemetry.Histogram
	lookupHops   *telemetry.Histogram
	traceStarted *telemetry.Counter
	traceDone    *telemetry.Counter
	storeWrites  *telemetry.Counter
	fetchReads   *telemetry.Counter
	storeItems   *telemetry.Gauge
	suspects     *telemetry.Gauge

	fetchErrors       *telemetry.Counter
	readRepairs       *telemetry.Counter
	antiEntropyRounds *telemetry.Counter
	antiEntropySyncs  *telemetry.Counter
	antiEntropyPushed *telemetry.Counter
	antiEntropyPulled *telemetry.Counter

	replicaPushes       [numPushKinds]*telemetry.Counter
	replicateFullRounds *telemetry.Counter

	// sentFixed/receivedFixed are immutable after construction: read-only
	// map lookups are safe for unsynchronized concurrent use.
	sentFixed     map[string]*telemetry.Counter
	receivedFixed map[string]*telemetry.Counter

	mu       sync.Mutex
	sent     map[string]*telemetry.Counter // unknown types only
	received map[string]*telemetry.Counter
}

func newNodeMetrics(reg *telemetry.Registry) *nodeMetrics {
	m := &nodeMetrics{
		reg:          reg,
		retries:      reg.Counter(mnRetries, "re-send attempts beyond each call's first"),
		failedCalls:  reg.Counter(mnFailed, "calls that exhausted every attempt"),
		routedAround: reg.Counter(mnRouteAround, "lookup forwards that skipped a distrusted best candidate"),
		rpcLatency:   reg.Histogram(mnRPCLatency, "outgoing RPC latency per completed call, seconds", telemetry.DefBuckets),
		rpcAttempts:  reg.Histogram(mnRPCAttempts, "transport attempts used per RPC call", telemetry.AttemptBuckets),
		lookupHops:   reg.Histogram(mnLookupHops, "forwarding hops per lookup answered for a local or remote originator", telemetry.HopBuckets),
		traceStarted: reg.Counter(mnTraceStarted, "route traces originated by this node"),
		traceDone:    reg.Counter(mnTraceDone, "route traces completed and archived at this node"),
		storeWrites:  reg.Counter(mnStoreWrites, "local store writes (values, pointers and replicas)"),
		fetchReads:   reg.Counter(mnFetchReads, "local fetch reads served"),
		storeItems:   reg.Gauge(mnStoreItems, "distinct keys currently stored"),
		suspects:     reg.Gauge(mnSuspects, "peers the failure detector currently distrusts"),
		fetchErrors:  reg.Counter(mnFetchErrors, "failed lookup or fetch probes during Get, previously swallowed"),
		readRepairs:  reg.Counter(mnReadRepairs, "replica copies pushed by read repair"),
		antiEntropyRounds: reg.Counter(mnAERounds,
			"anti-entropy rounds completed (every level and replica partner)"),
		antiEntropySyncs: reg.Counter(mnAESyncs,
			"anti-entropy scope comparisons whose Merkle roots diverged"),
		antiEntropyPushed: reg.Counter(mnAEPushed,
			"records pushed to replica partners by anti-entropy repair"),
		antiEntropyPulled: reg.Counter(mnAEPulled,
			"records pulled from replica partners by anti-entropy repair"),
		replicateFullRounds: reg.Counter(mnReplFull,
			"replication rounds that swept every stored record: the node's first, or placement moved"),
		sentFixed:     make(map[string]*telemetry.Counter, len(knownMsgTypes)),
		receivedFixed: make(map[string]*telemetry.Counter, len(knownMsgTypes)),
		sent:          make(map[string]*telemetry.Counter),
		received:      make(map[string]*telemetry.Counter),
	}
	for k, name := range replicaPushKindNames {
		m.replicaPushes[k] = reg.Counter(mnReplPushes, "records a replication round copied to another node, by kind",
			telemetry.L("kind", name))
	}
	for _, t := range knownMsgTypes {
		m.sentFixed[t] = reg.Counter(mnSent, "outgoing requests by message type (first attempts only)",
			telemetry.L("type", t))
		m.receivedFixed[t] = reg.Counter(mnReceived, "incoming requests by message type",
			telemetry.L("type", t))
	}
	return m
}

// sentCounter returns the outgoing-request counter for a message type. Known
// types resolve lock-free through the immutable map.
func (m *nodeMetrics) sentCounter(msgType string) *telemetry.Counter {
	if c, ok := m.sentFixed[msgType]; ok {
		return c
	}
	m.mu.Lock()
	c, ok := m.sent[msgType]
	if !ok {
		c = m.reg.Counter(mnSent, "outgoing requests by message type (first attempts only)",
			telemetry.L("type", msgType))
		m.sent[msgType] = c
	}
	m.mu.Unlock()
	return c
}

// receivedCounter returns the incoming-request counter for a message type.
// Known types resolve lock-free through the immutable map.
func (m *nodeMetrics) receivedCounter(msgType string) *telemetry.Counter {
	if c, ok := m.receivedFixed[msgType]; ok {
		return c
	}
	m.mu.Lock()
	c, ok := m.received[msgType]
	if !ok {
		c = m.reg.Counter(mnReceived, "incoming requests by message type",
			telemetry.L("type", msgType))
		m.received[msgType] = c
	}
	m.mu.Unlock()
	return c
}

// counterSnapshot merges a fixed and an overflow counter map into per-type
// counts, skipping zero-valued series: pre-registered counters for types the
// node never actually sent or served must not surface in Stats (which
// historically only listed observed types).
func (m *nodeMetrics) counterSnapshot(fixed, lazy map[string]*telemetry.Counter) map[string]int64 {
	out := make(map[string]int64, len(fixed))
	for k, c := range fixed {
		if v := c.Value(); v != 0 {
			out[k] = v
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, c := range lazy {
		if v := c.Value(); v != 0 {
			out[k] = v
		}
	}
	return out
}

// sentSnapshot copies the per-type sent counts (the Stats bridge).
func (m *nodeMetrics) sentSnapshot() map[string]int64 {
	return m.counterSnapshot(m.sentFixed, m.sent)
}

// receivedSnapshot copies the per-type received counts.
func (m *nodeMetrics) receivedSnapshot() map[string]int64 {
	return m.counterSnapshot(m.receivedFixed, m.received)
}
