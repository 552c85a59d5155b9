package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/canon-dht/canon/internal/netnode"
)

const (
	// opTimeout bounds one request; a request that times out is failed and
	// counts as taking opTimeout.
	opTimeout = 5 * time.Second
	// inflightCap is the open loop's cap on requests in flight; a request
	// due while the cap is reached is refused and counted as failed.
	inflightCap = 512
	// readBackWorkers is how many read-back Gets run at once.
	readBackWorkers = 4
	// catchUpTicks is how many maintenance ticks a read-back waits for
	// copies to catch up with the last Puts.
	catchUpTicks = 2
)

var errRefused = errors.New("refused: in-flight cap reached")

// recorder collects one phase's outcomes. Latencies are in ms from each
// request's due time; a failed request counts as taking opTimeout, so it
// misses any latency limit below that. The phase is cut into windows so a
// figure can be reported as the median of its per-window values, which a
// stall of the shared machine in one window does not move.
type recorder struct {
	start   time.Time
	window  time.Duration
	elapsed time.Duration // from the start until the last request returned

	mu          sync.Mutex
	lat         [2][]float64 // by opKind
	byDue       [][]float64  // latencies by window of the due time
	completed   []int64      // successful requests by window of completion
	late        []float64    // open loop: ms the generator fired after the due time
	attempted   int64
	failed      int64 // errors, time-outs, refusals and wrong values
	wrong       int64
	inflightMax int64
	violations  []string
	errors      []string // the first few request errors
}

func newRecorder(window time.Duration) *recorder {
	return &recorder{start: time.Now(), window: window}
}

func (r *recorder) windowOf(t time.Time) int {
	return int(t.Sub(r.start) / r.window)
}

func (r *recorder) done(k opKind, due, end time.Time, err error) {
	failed := err != nil
	ms := float64(end.Sub(due)) / 1e6
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if failed {
		r.failed++
		ms = float64(opTimeout) / 1e6
		if len(r.errors) < 5 {
			r.errors = append(r.errors, err.Error())
		}
	} else {
		w := r.windowOf(end)
		for len(r.completed) <= w {
			r.completed = append(r.completed, 0)
		}
		r.completed[w]++
	}
	r.lat[k] = append(r.lat[k], ms)
	w := r.windowOf(due)
	for len(r.byDue) <= w {
		r.byDue = append(r.byDue, nil)
	}
	r.byDue[w] = append(r.byDue[w], ms)
}

// windowQuantiles returns the q-quantile of each group of the given
// number of consecutive windows, over the whole groups holding at least
// minSamples latencies, and the samples behind them.
func (r *recorder) windowQuantiles(q float64, group, minSamples int) ([]float64, int) {
	var per []float64
	n := 0
	for i := 0; i+group <= len(r.byDue); i += group {
		var lat []float64
		for _, w := range r.byDue[i : i+group] {
			lat = append(lat, w...)
		}
		if len(lat) >= minSamples {
			sort.Float64s(lat)
			per = append(per, quantile(lat, q))
			n += len(lat)
		}
	}
	return per, n
}

// windowRates returns the successful requests per second of each of the
// phase's whole windows.
func (r *recorder) windowRates(phase time.Duration) []float64 {
	whole := int(phase / r.window)
	var per []float64
	for w := 0; w < whole && w < len(r.completed); w++ {
		per = append(per, float64(r.completed[w])/r.window.Seconds())
	}
	return per
}

func (r *recorder) violation(err error) {
	r.mu.Lock()
	r.wrong++
	if len(r.violations) < 10 {
		r.violations = append(r.violations, err.Error())
	}
	r.mu.Unlock()
}

// runner executes requests against a cluster and checks every answer.
type runner struct {
	w     *workload
	c     *cluster
	items []item
	o     *oracle
	tr    *tracer // nil: untraced
	epoch time.Time
	bootS float64 // seconds set-up spent before the preload
}

func (r *runner) now() int64 { return int64(time.Since(r.epoch)) }

// do executes one request and records it against due. Every item is
// stored before the first timed request, so a Get that finds no value
// while its deadline has not passed is a lost item, not a slow one.
func (r *runner) do(ctx context.Context, o op, due time.Time, rec *recorder) {
	it := r.items[o.item]
	addr := r.c.infos[o.via].Addr
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ctx, sid, sstart := r.tr.beginOp(ctx)
	var (
		err   error
		value []byte
	)
	switch o.kind {
	case opGet:
		value, err = r.c.client.Get(ctx, addr, it.key)
	case opPut:
		var seq uint64
		seq, value = r.o.beginPut(it.key, r.now())
		err = r.c.client.Put(ctx, addr, it.key, value, it.storage, it.storage)
		r.o.endPut(it.key, seq, r.now(), err == nil)
	}
	end := time.Now()
	r.tr.endOp(sid, sstart, o.kind, err != nil)
	if o.kind == opGet {
		switch {
		case err == nil:
			if err = r.o.check(it.key, value, false); err != nil {
				rec.violation(err)
			}
		case errors.Is(err, netnode.ErrNotFound) && ctx.Err() == nil:
			rec.violation(fmt.Errorf("key %x: stored item not found: %w", it.key, err))
		}
	}
	rec.done(o.kind, due, end, err)
}

// nanosleep blocks the calling thread: the runtime timer wakes sub-ms
// sleeps about a millisecond late, which would dominate latency measured
// from the due time.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// openLoop fires requests at their due times, a Poisson process of the
// given rate drawn from arrivals, for dur. Each request is timed from its
// due time, so a stall delays every request due during it.
func (r *runner) openLoop(ctx context.Context, gen *opGen, arrivals *rand.Rand, rate float64, dur time.Duration) *recorder {
	rec := newRecorder(r.w.cycle())
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
	)
	end := rec.start.Add(dur)
	due := rec.start
	for {
		due = due.Add(time.Duration(arrivals.ExpFloat64() / rate * 1e9))
		if !due.Before(end) {
			break
		}
		if d := time.Until(due); d > 0 {
			nanosleep(d)
		}
		o := gen.next(r.items)
		late := float64(time.Since(due)) / 1e6
		n := inflight.Add(1)
		rec.mu.Lock()
		rec.late = append(rec.late, late)
		if n > rec.inflightMax {
			rec.inflightMax = n
		}
		rec.mu.Unlock()
		if n > inflightCap {
			inflight.Add(-1)
			rec.done(o.kind, due, time.Now(), errRefused)
			continue
		}
		wg.Add(1)
		go func(o op, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			r.do(ctx, o, due, rec)
		}(o, due)
	}
	wg.Wait()
	return rec
}

// closedLoop runs one client per generator, each sending its next request
// when the previous one returns, for dur, counting completions in windows
// of the workload's cycle.
func (r *runner) closedLoop(ctx context.Context, gens []*opGen, dur time.Duration) *recorder {
	rec := newRecorder(r.w.cycle())
	var wg sync.WaitGroup
	deadline := rec.start.Add(dur)
	for _, g := range gens {
		wg.Add(1)
		go func(g *opGen) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := g.next(r.items)
				r.do(ctx, o, time.Now(), rec)
			}
		}(g)
	}
	wg.Wait()
	rec.elapsed = time.Since(rec.start)
	return rec
}

// rate is the phase's successful requests per second.
func (r *recorder) rate() float64 {
	return ratio(float64(r.attempted-r.failed), r.elapsed.Seconds())
}

// readBack reads every item twice and returns how many of the second
// reads were stale. The item's owner in its storage domain must hold its
// newest acked value or a newer one: the owner fsynced every acked Put, so
// anything older there is a lost write and fails the run. A Get through a
// node of the item's home leaf, the path the workload reads by, must
// return a value the item was given; one older than its newest acked value
// is counted as stale, not failed, because the Get returns the first copy
// it meets on the way out from the leaf and copies on other nodes can lag
// (LEDGER.md). Where maintenance runs, replicas and per-level copies are
// refreshed by the replica push, so it first waits catchUpTicks ticks for
// them to catch up with the last Puts.
func (r *runner) readBack(ctx context.Context) (stale int, err error) {
	if r.w.maintain {
		time.Sleep(catchUpTicks * tick)
	}
	work := make(chan int)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for w := 0; w < readBackWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				ownerErr, leafErr, isStale := r.readBackItem(ctx, r.items[i])
				mu.Lock()
				for _, err := range []error{ownerErr, leafErr} {
					if err != nil {
						errs = append(errs, err)
					}
				}
				if isStale {
					stale++
				}
				mu.Unlock()
			}
		}()
	}
	for i := range r.items {
		work <- i
	}
	close(work)
	wg.Wait()
	if len(errs) > 10 {
		errs = append(errs[:10], fmt.Errorf("and %d more", len(errs)-10))
	}
	return stale, errors.Join(errs...)
}

// readBackItem reads one item from its owner and through its home leaf.
func (r *runner) readBackItem(ctx context.Context, it item) (ownerErr, leafErr error, stale bool) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	via := r.c.infos[it.leaf*nodesPerLeaf].Addr
	// A Get entered at the owner meets the owner's own copy first: the
	// owner in a domain owns the key in every subdomain holding it.
	owner, _, err := r.c.client.Lookup(ctx, via, it.key, it.storage)
	var v []byte
	if err == nil {
		v, err = r.c.client.Get(ctx, owner.Addr, it.key)
	}
	if err == nil {
		err = r.o.check(it.key, v, true)
	}
	if err != nil {
		ownerErr = fmt.Errorf("read-back of key %x from its owner: %w", it.key, err)
	}
	v, err = r.c.client.Get(ctx, via, it.key)
	if err == nil {
		err = r.o.check(it.key, v, false)
	}
	if err != nil {
		return ownerErr, fmt.Errorf("read-back of key %x through its leaf: %w", it.key, err), false
	}
	return ownerErr, nil, r.o.check(it.key, v, true) != nil
}
