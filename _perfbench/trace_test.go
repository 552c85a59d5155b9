package main

import "testing"

func TestTracerKeepsLimitOrRing(t *testing.T) {
	for _, c := range []struct {
		ring      bool
		wantIDs   []uint32
		truncated bool
	}{
		{ring: false, wantIDs: []uint32{1, 2}, truncated: true},
		{ring: true, wantIDs: []uint32{3, 2}},
	} {
		tr := newTracer()
		tr.arm(2, c.ring)
		for id := uint32(1); id <= 3; id++ {
			tr.add(span{id: id, name: "lookup"})
		}
		spans, truncated := tr.disarm()
		if truncated != c.truncated || len(spans) != len(c.wantIDs) {
			t.Fatalf("ring=%t: %d spans, truncated %t", c.ring, len(spans), truncated)
		}
		for i, s := range spans {
			if s.id != c.wantIDs[i] {
				t.Errorf("ring=%t: span %d has id %d, want %d", c.ring, i, s.id, c.wantIDs[i])
			}
		}
	}
}
