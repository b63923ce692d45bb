package main

import (
	"math"
	"testing"
	"time"
)

func TestSlowdownIsMedianOverNominal(t *testing.T) {
	if got := slowdown([]time.Duration{ms(30), ms(10), ms(20)}, ms(10)); got != 2 {
		t.Errorf("slowdown %v, want 2", got)
	}
	if got := slowdown(nil, ms(10)); got != 1 {
		t.Errorf("slowdown without passes %v, want 1", got)
	}
}

func TestComputeRefStaysBounded(t *testing.T) {
	r, err := newComputeRef()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < 20; i++ {
		if wall, cpu := r.pass(); wall <= 0 || cpu < 0 {
			t.Fatalf("pass %d took %v wall, %v CPU", i, wall, cpu)
		}
	}
	for i, v := range r.table {
		if math.IsNaN(v) || math.Abs(v) > 1 {
			t.Fatalf("table[%d] = %v after 20 passes", i, v)
		}
	}
}

func TestHTTPRefPass(t *testing.T) {
	r, err := newHTTPRef(2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.pass()
	r.close()
	if err != nil || d <= 0 {
		t.Fatalf("pass: %v, %v", d, err)
	}
	if _, err := r.pass(); err == nil {
		t.Error("pass against a closed reference server succeeded")
	}
}
