package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func bootForTest(t *testing.T, w *workload, tr *tracer) *cluster {
	t.Helper()
	c, err := boot(context.Background(), w, 11, t.TempDir(), tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.close(); err != nil {
			t.Error(err)
		}
	})
	return c
}

// TestDecoratorsAreTransparent boots the same cluster twice, once with
// every transport and store wrapped and recording, and checks that both
// resolve the same owners and return the same values.
func TestDecoratorsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two loopback clusters")
	}
	w, err := workloadByName("read-hier")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	plain := bootForTest(t, w, nil)
	tr := newTracer()
	traced := bootForTest(t, w, tr)
	tr.arm(1<<20, false)

	items := makeItems(rand.New(rand.NewSource(5)), 64)
	for i, it := range items {
		via := it.leaf * nodesPerLeaf
		value := makeValue(3, it.key, uint64(i+1), w.valueSize)
		var owners [2]uint64
		for k, c := range []*cluster{plain, traced} {
			owner, _, err := c.client.Lookup(ctx, c.infos[via].Addr, it.key, it.storage)
			if err != nil {
				t.Fatalf("lookup %x: %v", it.key, err)
			}
			owners[k] = owner.ID
			if err := c.client.Put(ctx, c.infos[via].Addr, it.key, value, it.storage, it.storage); err != nil {
				t.Fatalf("put %x: %v", it.key, err)
			}
			got, err := c.client.Get(ctx, c.infos[via+1].Addr, it.key)
			if err != nil {
				t.Fatalf("get %x: %v", it.key, err)
			}
			if !bytes.Equal(got, value) {
				t.Fatalf("key %x: got a different value back", it.key)
			}
		}
		if owners[0] != owners[1] {
			t.Errorf("key %x in %q: owner %x unwrapped, %x wrapped", it.key, it.storage, owners[0], owners[1])
		}
	}
	spans, truncated := tr.disarm()
	kinds := make(map[uint8]int)
	for _, s := range spans {
		kinds[s.kind]++
	}
	if truncated || kinds[kindCall] == 0 || kinds[kindHandler] == 0 || kinds[kindStore] == 0 {
		t.Errorf("wrapped cluster recorded %v spans by kind (truncated %t)", kinds, truncated)
	}
}

// TestMissingItemFailsTheRun stores every item of a small read-hier
// cluster, then adds one item that was never stored: a timed Get of it and
// the read-back must both report a violation, and the run must fail.
func TestMissingItemFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a loopback cluster")
	}
	w, err := workloadByName("read-hier")
	if err != nil {
		t.Fatal(err)
	}
	small := *w
	small.items = 64
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	r, err := setUp(ctx, &small, options{seed: 3, out: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.c.close()
	missing := item{key: 1, leaf: 0, storage: leaves[0]}
	for _, it := range r.items {
		if it.key == missing.key {
			t.Fatalf("key %x was stored", missing.key)
		}
	}
	r.items = append(r.items, missing)

	rec := newRecorder(time.Second)
	r.do(ctx, op{kind: opGet, item: len(r.items) - 1, via: 0}, time.Now(), rec)
	res := &result{Correct: true}
	res.tally(rec)
	if rec.wrong != 1 || rec.failed != 1 || res.Correct {
		t.Errorf("Get of a missing item: wrong=%d failed=%d correct=%t, want 1, 1, false",
			rec.wrong, rec.failed, res.Correct)
	}
	res = &result{Correct: true}
	res.checkReadBack(ctx, r)
	if res.Correct || len(res.Violations) != 1 {
		t.Errorf("read-back with a missing item: correct=%t violations=%v", res.Correct, res.Violations)
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONNamesWhatTheCommandRuns(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads; the command has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics; the ledger has %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s (%s): the ledger has unit %q", m.Name, m.Unit, unit)
		}
	}
	if len(b.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics; the command has %d", len(b.EndToEnd), len(endToEndUnits))
	}
	for _, m := range b.EndToEnd {
		if unit, ok := endToEndUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("end-to-end %s (%s): the command has unit %q", m.Name, m.Unit, unit)
		}
	}
}

// TestSmoke is the short smoke mode: every workload, end-to-end and
// traced, as briefly as its windows allow. Each run must check out correct with no
// failed request and report exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range b.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range b.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for _, w := range workloads {
		// Long enough for one whole open-loop window and one whole window in
		// each closed-loop slice.
		seconds := math.Ceil(math.Max(float64(w.p99Cycles())*w.cycle().Seconds()/openShare,
			w.cycle().Seconds()*layouts/(1-openShare)))
		for _, trace := range []bool{false, true} {
			opts := options{workload: w.name, seed: 2, seconds: seconds, trace: trace,
				out: t.TempDir(), commit: "test", sourceDigest: "test"}
			res, err := execute(context.Background(), opts)
			if err != nil {
				t.Errorf("%s trace=%t: %v", w.name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d violations=%v errors=%v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Violations, res.Errors)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			sort.Strings(want[trace])
			if fmt.Sprint(got) != fmt.Sprint(want[trace]) {
				t.Errorf("%s trace=%t: metrics %v, want %v", w.name, trace, got, want[trace])
			}
		}
	}
}
