// Command perfbench is Canon's end-to-end benchmark. It boots an 8-node
// Canon cluster on loopback TCP in this process (four leaf domains under two
// top-level domains, a canonstore.Disk per node with fsync before every
// store ack), drives it through netnode.Client with an open-loop generator
// and then a closed loop, checks every answer, and prints the workload's
// metrics. With -trace 1 it instead wraps every transport and store in
// timing decorators and prints the per-layer ledger. LEDGER.md lists the
// metrics, the workloads and what each layer metric should move.
//
// Usage:
//
//	perfbench -workload read-hier -seed 1 -seconds 45 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// warmup runs a closed loop before the first timed phase so connections
// are dialed and pools are filled.
const warmup = 500 * time.Millisecond

// setupRuns is how many set-ups the end-to-end run times; setup_s is
// their median.
const setupRuns = 14

// spanLimit caps the spans the traced open loop keeps in memory;
// overheadRing is the ring the traced closed loop records into.
const (
	spanLimit    = 2_000_000
	overheadRing = 1 << 16
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        bool
	out          string // data, results and spans go under this directory
	commit       string
	sourceDigest string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var opts options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.workload, "workload", "", "workload: read-hier or steady-replicated")
	fs.Int64Var(&opts.seed, "seed", 1, "seed for node IDs, keys, values and the arrival schedule")
	fs.Float64Var(&opts.seconds, "seconds", 45, "seconds of timed requests")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer ledger instead of the end-to-end metrics")
	fs.StringVar(&opts.out, "out", ".bench_build", "directory for data, results and spans")
	fs.StringVar(&opts.commit, "commit", "unknown", "commit of the code under test, for the run record")
	fs.StringVar(&opts.sourceDigest, "source-digest", "unknown", "digest of the source under test, for the run record")
	if err := fs.Parse(args); err != nil {
		return opts, err
	}
	if _, err := workloadByName(opts.workload); err != nil {
		return opts, err
	}
	if opts.seconds <= 0 || (trace != 0 && trace != 1) {
		return opts, fmt.Errorf("need -seconds > 0 and -trace 0 or 1")
	}
	opts.trace = trace == 1
	return opts, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	res, err := execute(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res.print(stdout)
	if err := res.save(opts); err != nil {
		fmt.Fprintln(stderr, "perfbench: save result:", err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile
}

// result is one run's outcome. Metrics holds what BENCHMARK.json names for
// this trace mode; Report holds every figure the run measured.
type result struct {
	Record     runRecord         `json:"record"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Report     map[string]metric `json:"report"`
	Violations []string          `json:"violations,omitempty"`
	Errors     []string          `json:"errors,omitempty"` // the first few failed requests
	// Windows holds the per-window values behind each windowed median.
	Windows map[string][]float64 `json:"windows,omitempty"`

	readBacks, staleReads int // items read back through their home leaf, and how many were stale
}

func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%t\n", r.Record.Workload, r.Record.Seed,
		r.Record.Seconds, r.Record.Trace)
	names := make([]string, 0, len(r.Report))
	for name := range r.Report {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Report[name]
		if m.N > 0 {
			fmt.Fprintf(w, "%-40s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	for _, v := range r.Violations {
		fmt.Fprintln(w, "violation:", v)
	}
	for _, e := range r.Errors {
		fmt.Fprintln(w, "failed request:", e)
	}
	rec, _ := json.Marshal(r.Record)
	fmt.Fprintf(w, "record %s\n", rec)
	type line struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}
	out := line{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]map[string]any)}
	for name, m := range r.Metrics {
		out.Metrics[name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	last, _ := json.Marshal(out)
	fmt.Fprintf(w, "%s\n", last)
}

func (r *result) save(opts options) error {
	dir := filepath.Join(opts.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", opts.workload, opts.seed, map[bool]int{false: 0, true: 1}[opts.trace])
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// subSeed derives an independent stream seed from the run seed.
func subSeed(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1B54A32D192ED03
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return int64((x ^ (x >> 31)) >> 1)
}

// Stream numbers for subSeed.
const (
	streamItems    = 1
	streamWarmup   = 100
	streamOpen     = 200
	streamArrivals = 300
	streamClosed   = 400
	streamLayouts  = 500
)

func (r *runner) gens(stream int64, n int) []*opGen {
	gens := make([]*opGen, n)
	for i := range gens {
		gens[i] = newOpGen(r.w, len(r.items), subSeed(r.o.seed, stream+int64(i)))
	}
	return gens
}

// setUp boots a cluster, preloads it and starts maintenance as the
// workload asks: everything up to the first timed request.
func setUp(ctx context.Context, w *workload, opts options, tr *tracer) (*runner, error) {
	dataRoot := filepath.Join(opts.out, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	c, err := boot(ctx, w, opts.seed, dataRoot, tr)
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	items := makeItems(rand.New(rand.NewSource(subSeed(opts.seed, streamItems))), w.items)
	r := &runner{w: w, c: c, items: items, o: newOracle(opts.seed, w), tr: tr, epoch: time.Now()}
	r.bootS = time.Since(start).Seconds()
	if err := c.preload(ctx, items, r.o); err != nil {
		c.close()
		return nil, err
	}
	if w.maintain {
		for _, n := range c.nodes {
			n.Start(tick)
		}
	}
	return r, nil
}

// endToEndUnits is every metric the end-to-end run puts in its JSON line,
// with its unit: the figures steady enough on a shared machine to gate a
// change (LEDGER.md). Throughput and latency are reported but not gated:
// they follow how fast the shared host runs, which drifts over minutes.
var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"rpcs_per_op":  "1/op",
	"live_heap_mb": "MiB",
}

// Shares of the timed seconds: the end-to-end run splits them between the
// open loop and the closed loop; the traced run gives tracedClosedShare to
// each of its two closed loops and the rest to its open loop.
const (
	openShare         = 0.25
	tracedClosedShare = 0.3
)

// phase is a share of the run's timed seconds.
func phase(opts options, share float64) time.Duration {
	return time.Duration(opts.seconds * share * float64(time.Second))
}

func execute(ctx context.Context, opts options) (*result, error) {
	w, _ := workloadByName(opts.workload)
	res := &result{Correct: true, Metrics: make(map[string]metric), Report: make(map[string]metric),
		Windows: make(map[string][]float64)}
	var err error
	if opts.trace {
		err = executeTraced(ctx, w, opts, res)
	} else {
		err = executeEndToEnd(ctx, w, opts, res)
	}
	if err != nil {
		return nil, err
	}
	res.Report["readback.stale_share"] = metric{
		Value: ratio(float64(res.staleReads), float64(res.readBacks)), Unit: "ratio", N: res.readBacks}
	res.Record = newRunRecord(opts, w)
	return res, nil
}

// tally adds a timed phase's counts and violations to the result.
func (res *result) tally(rec *recorder) {
	res.Attempted += rec.attempted
	res.Failed += rec.failed
	res.Violations = append(res.Violations, rec.violations...)
	res.Errors = append(res.Errors, rec.errors...)
	if rec.wrong > 0 {
		res.Correct = false
	}
}

// checkReadBack fails the run when a read-back finds a lost or wrong value,
// and counts its stale reads.
func (res *result) checkReadBack(ctx context.Context, r *runner) {
	stale, err := r.readBack(ctx)
	res.readBacks += len(r.items)
	res.staleReads += stale
	if err != nil {
		res.Correct = false
		res.Violations = append(res.Violations, err.Error())
	}
}

// layouts is how many cluster layouts the end-to-end run measures its
// closed loop on, in equal slices. A layout is the node IDs and the items,
// both drawn from a seed; on steady-replicated one seed's layout ran its
// closed loop a tenth faster than others in every set of runs (LEDGER.md).
const layouts = 3

// layoutSeed is the seed of the run's k-th layout; layout 0 is the run's
// own seed.
func layoutSeed(seed int64, k int) int64 {
	if k == 0 {
		return seed
	}
	return subSeed(seed, streamLayouts+int64(k))
}

func executeEndToEnd(ctx context.Context, w *workload, opts options, res *result) error {
	var setups, boots []float64
	var rates []float64
	var steal0 stealSample
	// The set-ups deal the layouts in turn. Set-up `first` (layout 0) runs
	// the open loop and the first closed-loop slice, the next layouts-1
	// set-ups one slice each; the rest run nothing timed, so that setup_s
	// samples the machine at both ends of the run.
	const first = setupRuns/2 - 1
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // the clusters closed before are garbage, not set-up work
		o := opts
		o.seed = layoutSeed(opts.seed, i%layouts)
		start := time.Now()
		r, err := setUp(ctx, w, o, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		boots = append(boots, r.bootS)
		if i == first {
			steal0 = sampleSteal()
			err = measureOpen(ctx, w, o, r, res)
		}
		if err == nil && i >= first && i < first+layouts {
			rates = append(rates, measureClosed(ctx, o, r, res)...)
		}
		if cerr := r.c.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	set := func(name string, v float64, unit string) {
		res.Report[name] = metric{Value: v, Unit: unit}
	}
	set("ops_per_s", median(rates), "ops/s")
	set("host.steal_share", stealShare(steal0, sampleSteal(), runtime.NumCPU()), "ratio")
	set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	set("setup_s", median(setups), "s")
	set("setup.boot_s", median(boots), "s")
	res.Windows["ops_per_s"] = rates
	res.Windows["setup_s"] = setups
	res.Windows["setup.boot_s"] = boots
	for name, unit := range endToEndUnits {
		m := res.Report[name]
		if m.Unit != unit {
			return fmt.Errorf("end-to-end metric %s measured in %q, want %q", name, m.Unit, unit)
		}
		res.Metrics[name] = m
	}
	return nil
}

// measureOpen runs the end-to-end run's open loop on r, counting the RPCs
// the nodes served during it, and takes the live heap after it.
func measureOpen(ctx context.Context, w *workload, opts options, r *runner, res *result) error {
	procs := runtime.GOMAXPROCS(0)
	r.closedLoop(ctx, r.gens(streamWarmup, procs), warmup)

	// The open loop runs whole cycles, so that no window is cut short.
	openDur := phase(opts, openShare)
	if c := w.cycle(); openDur > c {
		openDur = openDur / c * c
	}
	set := func(name string, v float64, unit string, n int) {
		res.Report[name] = metric{Value: v, Unit: unit, N: n}
	}
	served0 := r.c.rpcsServed()
	open := r.openLoop(ctx, r.gens(streamOpen, 1)[0],
		rand.New(rand.NewSource(subSeed(opts.seed, streamArrivals))), w.rate, openDur)
	res.tally(open)
	// At a fixed arrival rate the background RPCs per request do not depend
	// on how fast the host runs, as they would in the closed loop.
	set("rpcs_per_op", ratio(float64(r.c.rpcsServed()-served0), float64(open.attempted)), "1/op", int(open.attempted))
	for k, lat := range open.lat {
		if len(lat) == 0 {
			continue
		}
		name := opKind(k).String()
		sorted := sortedCopy(lat)
		set(name+"_p50_ms", quantile(sorted, 0.5), "ms", len(sorted))
		if p, v, ok := tailPercentile(sorted); ok {
			set(fmt.Sprintf("%s_p%g_ms", name, p), v, "ms", len(sorted))
		}
	}
	p50s, n50 := open.windowQuantiles(0.5, 1, minP50Samples)
	p99s, n99 := open.windowQuantiles(0.99, w.p99Cycles(), minWindowSamples)
	if n50 == 0 || n99 == 0 {
		return fmt.Errorf("open loop of %v too short for a window of %d requests", openDur, minWindowSamples)
	}
	set("op_p50_ms", median(p50s), "ms", n50)
	set("op_p99_ms", median(p99s), "ms", n99)
	set("loadgen.late_p99_ms", quantile(sortedCopy(open.late), 0.99), "ms", len(open.late))
	res.Windows["op_p50_ms"], res.Windows["op_p99_ms"] = p50s, p99s
	// The live heap is taken here, where the request mix is fixed by the
	// rate: after the closed loop, how much of each node's response cache
	// holds foreground responses depends on the throughput reached. The
	// open loop's records are dropped first; the oracle stays, its size
	// also fixed by the rate.
	open = nil
	set("live_heap_mb", liveHeapMiB(), "MiB", 0)
	res.checkReadBack(ctx, r)
	return nil
}

// measureClosed runs one slice of the end-to-end run's closed loop on r
// and returns the completed requests per second of each of its windows.
func measureClosed(ctx context.Context, opts options, r *runner, res *result) []float64 {
	procs := runtime.GOMAXPROCS(0)
	r.closedLoop(ctx, r.gens(streamWarmup, procs), warmup)
	dur := phase(opts, (1-openShare)/layouts)
	closed := r.closedLoop(ctx, r.gens(streamClosed, procs), dur)
	res.tally(closed)
	res.checkReadBack(ctx, r)
	return closed.windowRates(dur)
}

func executeTraced(ctx context.Context, w *workload, opts options, res *result) error {
	tr := newTracer()
	r, err := setUp(ctx, w, opts, tr)
	if err != nil {
		return err
	}
	defer r.c.close()
	procs := runtime.GOMAXPROCS(0)
	r.closedLoop(ctx, r.gens(streamWarmup, procs), warmup)

	// Untraced and traced closed loops back to back give the tracing
	// overhead; the untraced one also gives the proc layer.
	closedDur := phase(opts, tracedClosedShare)
	p0 := sampleProc()
	plain := r.closedLoop(ctx, r.gens(streamClosed, procs), closedDur)
	p1 := sampleProc()
	res.tally(plain)
	plainOps := float64(plain.attempted - plain.failed)
	res.checkReadBack(ctx, r)

	tr.arm(overheadRing, true)
	traced := r.closedLoop(ctx, r.gens(streamClosed+50, procs), closedDur)
	_, _ = tr.disarm()
	res.tally(traced)
	res.checkReadBack(ctx, r)

	// The ledger comes from a traced open loop at the workload's rate.
	wal0 := r.c.walBytes()
	tr.arm(spanLimit, false)
	armed := time.Now()
	open := r.openLoop(ctx, r.gens(streamOpen, 1)[0],
		rand.New(rand.NewSource(subSeed(opts.seed, streamArrivals))), w.rate, phase(opts, 1-2*tracedClosedShare))
	wall := time.Since(armed)
	spans, truncated := tr.disarm()
	wal1 := r.c.walBytes()
	res.tally(open)
	res.checkReadBack(ctx, r)
	if truncated {
		return fmt.Errorf("traced phase exceeded %d spans", spanLimit)
	}

	l := analyse(spans)
	m := l.metrics(ledgerInput{wallNs: int64(wall), procs: procs, walBytes: wal1 - wal0})
	for k, v := range procMetrics(p0, p1, plainOps) {
		m[k] = v
	}
	m["loadgen.late_p99_ms"] = quantile(sortedCopy(open.late), 0.99)
	m["loadgen.inflight_max"] = float64(open.inflightMax)
	plainRate, tracedRate := plain.rate(), traced.rate()
	m["bench.trace_overhead_pct"] = 100 * ratio(plainRate-tracedRate, plainRate)
	if len(m) != len(perLayerUnits) {
		return fmt.Errorf("ledger has %d metrics, want %d", len(m), len(perLayerUnits))
	}
	for name, v := range m {
		unit, ok := perLayerUnits[name]
		if !ok {
			return fmt.Errorf("per-layer metric %s has no unit", name)
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
		res.Report[name] = res.Metrics[name]
	}
	res.Report["bench.spans"] = metric{Value: float64(len(spans)), Unit: "count"}

	dir := filepath.Join(opts.out, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One file per workload: the latest traced run's spans.
	return writeSpans(filepath.Join(dir, w.name+".tsv.gz"), spans, l.roots())
}
