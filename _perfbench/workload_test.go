package main

import "testing"

func TestOracleCheck(t *testing.T) {
	w := &workload{valueSize: 64}
	o := newOracle(9, w)
	preload := makeValue(9, 7, 0, 64)
	if err := o.check(7, preload, true); err != nil {
		t.Fatalf("preload value before any put: %v", err)
	}

	// Put 1 is acked over [10, 20]; put 2 starts at 30 and is acked at 40.
	seq1, v1 := o.beginPut(7, 10)
	o.endPut(7, seq1, 20, true)
	seq2, v2 := o.beginPut(7, 30)
	o.endPut(7, seq2, 40, true)

	corrupt := append([]byte(nil), v2...)
	corrupt[40] ^= 1
	for _, c := range []struct {
		name   string
		key    uint64
		v      []byte
		strict bool
		ok     bool
	}{
		{"newest acked put", 7, v2, true, true},
		{"superseded put, relaxed", 7, v1, false, true},
		{"superseded put, strict", 7, v1, true, false},
		{"preload after an acked put, strict", 7, preload, true, false},
		{"preload after an acked put, relaxed", 7, preload, false, true},
		{"corrupt byte", 7, corrupt, false, false},
		{"another key's value", 8, v2, false, false},
		{"seq never sent", 7, makeValue(9, 7, 99, 64), false, false},
		{"wrong length", 7, v2[:32], false, false},
	} {
		if err := o.check(c.key, c.v, c.strict); (err == nil) != c.ok {
			t.Errorf("%s: check = %v, want ok %t", c.name, err, c.ok)
		}
	}
}
