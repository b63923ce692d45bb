package main

import (
	"runtime/debug"
	"testing"
)

func TestProcReaders(t *testing.T) {
	m, err := startSteal()
	if err != nil {
		t.Fatal(err)
	}
	if m.total <= 0 || m.steal < 0 || m.steal > m.total {
		t.Errorf("steal %d of %d ticks", m.steal, m.total)
	}
	if share, err := m.share(); err != nil || share < 0 || share > 1 {
		t.Errorf("steal share %v, %v", share, err)
	}

	// A burst of memory raises the peak; a reset brings it back to the
	// resident size, below that peak once the burst is unmapped.
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	before, err := peakRSS("self")
	if err != nil {
		t.Fatal(err)
	}
	burst := make([]byte, 64<<20)
	for i := range burst {
		burst[i] = 1
	}
	during, err := peakRSS("self")
	if err != nil {
		t.Fatal(err)
	}
	if during < before+32<<20 {
		t.Errorf("peak RSS %d after a 64 MiB burst, %d before", during, before)
	}
	burst = nil
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	after, err := peakRSS("self")
	if err != nil {
		t.Fatal(err)
	}
	if after > during-32<<20 {
		t.Errorf("peak RSS %d after the reset, %d at the burst", after, during)
	}
}
