package transn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// TestTrainBitsGolden pins the exact bits Algorithm 1 produces on a fixed
// graph: a SHA-256 over the final embedding table and FinalLosses. Any
// change to the training hot path that claims to leave the arithmetic
// alone (scratch reuse, tape recycling, bounds-check removal) must keep
// these digests; a change that alters the floats on purpose must update
// them and say why.
//
// The digests hold on amd64 only. The Go compiler fuses x*y+z into one
// FMA instruction on arm64, ppc64(le) and s390x, which rounds once
// instead of twice, so the same source yields different (equally valid)
// bits there.
func TestTrainBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are amd64 bits; %s fuses multiply-add", runtime.GOARCH)
	}
	cases := []struct {
		name          string
		workers       int
		deterministic bool
		want          string
	}{
		{"serial", 1, false, "1fe8393ec3687856348012f04b12c5793501c71ebe01417070ee02f94eed107d"},
		{"sharded-deterministic", 2, true, "29d358efcd4008c0f027ea111b86aefe3c9cc0e3ee9c1d119b49bbec73b98e70"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg()
			cfg.Workers = tc.workers
			cfg.DeterministicApply = tc.deterministic
			g := socialGraph(t, 12, 6, 1)
			m, err := Train(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := trainDigest(m); got != tc.want {
				t.Errorf("training bits changed: digest %s, want %s", got, tc.want)
			}
		})
	}
}

// trainDigest hashes the final embedding bits, then the last iteration's
// per-view and per-pair losses, each as little-endian float64 bits.
func trainDigest(m *Model) string {
	h := sha256.New()
	var b [8]byte
	put := func(vs []float64) {
		binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
		h.Write(b[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	put(m.Embeddings().Data)
	viewLoss, pairLoss := m.FinalLosses()
	put(viewLoss)
	put(pairLoss)
	return hex.EncodeToString(h.Sum(nil))
}
