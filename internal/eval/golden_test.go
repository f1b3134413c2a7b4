package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
)

// weightDigest is the SHA-256 of every weight and bias of net, in
// (layer, core, row-major weight, bias) order, as little-endian IEEE-754
// bit patterns — so +0 and -0 (and every last ulp) are told apart.
func weightDigest(net *nn.Network) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, l := range net.Layers {
		for _, c := range l.Cores {
			for _, w := range c.W.Data {
				put(w)
			}
			for _, b := range c.Bias {
				put(b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// trainedDigests pins the exact trained models of bench 1 and bench 3 under
// the biased penalty (goldenModel's setting) at 1 and 2 workers. The in-tree
// per-sample reference trainer pins the batched kernels only against
// itself; these digests pin the trained weights against the values the
// trainer produced before its kernels were last rewritten, so "same model
// as before" is checked directly.
//
// The digests hold for amd64 at the default GOAMD64 level, where the Go
// compiler does not fuse multiply-adds; other targets may round differently
// and skip.
var trainedDigests = map[string]string{
	"bench1/w1": "cafc79e74e36c6fcdf4eb474458f31641e5f2182452c770fa216db0d2bfa72f2",
	"bench1/w2": "aab098275d8ca17f18c3c73873aca1721e37841bfe00cc917d4eb41c300623bd",
	"bench3/w1": "4e56a84f92d7f3302f1e410e171d628bd20e1c86231bcd5ced8a2a09c932abcb",
	"bench3/w2": "7269e802ba626cd5fa05f23e5e9526981fd2fb5a93213174e889eec1c81525fd",
}

// goldenModel trains bench id under the biased penalty on 200 digits for 2
// epochs at batch 32 (so the last minibatch is a partial one), logging to
// log, and checks the weights against trainedDigests.
func goldenModel(t *testing.T, id, workers int, log io.Writer) {
	t.Helper()
	skipIfHeavy(t)
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests pinned on amd64, running on %s", runtime.GOARCH)
	}
	b, err := BenchByID(id)
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Seed: 20160605, Workers: workers, TrainN: 200, TestN: 50, EpochsN: 2}
	m, err := NewRunner(opt, log).Model(b, "biased")
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("bench%d/w%d", id, workers)
	if got := weightDigest(m.Net); got != trainedDigests[key] {
		t.Errorf("%s: weight digest %s, want %s", key, got, trainedDigests[key])
	}
}

func TestTrainedWeightDigests(t *testing.T) {
	for _, id := range []int{1, 3} {
		for _, workers := range []int{1, 2} {
			goldenModel(t, id, workers, nil)
		}
	}
}

// TestTrainProgressLines: a Runner with a Log writes one JSON line per
// training epoch, and logging does not change the trained weights.
func TestTrainProgressLines(t *testing.T) {
	if NewRunner(Options{}, nil).Progress("m", 1) != nil {
		t.Error("a Runner without a Log returned a progress callback")
	}
	var log bytes.Buffer
	goldenModel(t, 1, 2, &log)
	var lines []epochLine
	for _, text := range strings.Split(log.String(), "\n") {
		if !strings.HasPrefix(text, "{") {
			continue // the runner's plain-text progress lines
		}
		var l epochLine
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 2 {
		t.Fatalf("%d epoch lines, want 2:\n%s", len(lines), log.String())
	}
	for i, l := range lines {
		if l.Model != "bench1-mnist-s12/biased" || l.Epoch != i+1 ||
			!(l.Loss > 0) || l.TrainAcc < 0 || l.TrainAcc > 1 || !(l.WallS > 0) ||
			math.Abs(l.SamplesPerS*l.WallS-200) > 1e-6 {
			t.Errorf("epoch line %d: %+v", i, l)
		}
	}
}
