package transn

import (
	"math/rand"
	"testing"

	"transn/internal/mat"
)

// Allocation pins for the cross-view hot path and the serving forward
// pass, at the default translator shape (L=8, d=64, H=2).

// maxSegmentAllocs bounds a warm trainSegment. Its tape, path matrices
// and row indices are recycled, so what is left is one backward closure
// per differentiable op (55 at H=2 with both tasks on).
const maxSegmentAllocs = 64

// maxTranslateAllocs bounds Translator.Translate on its fresh tape: the
// count before the tape recycled its matrices, which a single-use tape
// must not exceed.
const maxTranslateAllocs = 83

func TestTrainSegmentWarmAllocs(t *testing.T) {
	cfg := quickCfg()
	cfg.Dim = 64
	cfg.CrossPathLen = 8
	cfg.Encoders = 2
	cfg.Iterations = 1
	m, err := Train(socialGraph(t, 12, 6, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.sampleCommonSegments(0, 0, rand.New(rand.NewSource(1)))
	if len(segs) == 0 {
		t.Fatal("no common-node segments to train on")
	}
	pr, sc := m.pairs[0], m.scratch[0]
	fwd, bwd := m.trans[0][0], m.trans[0][1]
	step := func() { m.trainSegment(sc, segs[0], pr.I, pr.J, fwd, bwd) }
	step()
	allocs := testing.AllocsPerRun(20, step)
	t.Logf("warm trainSegment: %v allocs", allocs)
	if allocs > maxSegmentAllocs {
		t.Fatalf("warm trainSegment: %v allocs, want <= %d", allocs, maxSegmentAllocs)
	}
}

func TestTranslateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := NewTranslator(2, 8, false, 0.01, rng)
	x := mat.RandN(8, 64, 0.5, rng)
	allocs := testing.AllocsPerRun(20, func() { tr.Translate(x) })
	t.Logf("Translate: %v allocs", allocs)
	if allocs > maxTranslateAllocs {
		t.Fatalf("Translate: %v allocs, want <= %d", allocs, maxTranslateAllocs)
	}
}
