package baseline

import (
	"math"
	"testing"

	"tessel/internal/placement"
	"tessel/internal/sched"
)

func vshape(t *testing.T, d int) *sched.Placement {
	t.Helper()
	p, err := placement.VShape(placement.Config{Devices: d})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func validate(t *testing.T, s *sched.Schedule, n int) {
	t.Helper()
	if s.Len() != n*s.P.K() {
		t.Fatalf("schedule has %d items, want %d", s.Len(), n*s.P.K())
	}
	if err := s.Validate(sched.ValidateOptions{Memory: sched.Unbounded}); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestOneFOneBValid(t *testing.T) {
	p := vshape(t, 4)
	for _, n := range []int{1, 2, 4, 8, 16} {
		s, err := OneFOneB(p, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		validate(t, s, n)
	}
}

func TestOneFOneBSteadyStateZeroBubble(t *testing.T) {
	// With fwd=1/bwd=2 on a V-shape, 1F1B reaches a zero-bubble steady
	// state (Table II row "1F1B": 0%).
	p := vshape(t, 4)
	s, err := OneFOneB(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if br := SteadyBubble(s); br > 0.02 {
		t.Fatalf("steady bubble = %f, want ≈0", br)
	}
}

func TestOneFOneBPeakMemoryBounded(t *testing.T) {
	// 1F1B keeps at most D in-flight micro-batches on device 0.
	p := vshape(t, 4)
	s, err := OneFOneB(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	peaks := s.PeakMemory(nil)
	if peaks[0] > 4 {
		t.Fatalf("device 0 peak = %d, want ≤ 4 (1F1B property)", peaks[0])
	}
	// GPipe by contrast buffers all N.
	g, err := GPipe(p, 32)
	if err != nil {
		t.Fatal(err)
	}
	gp := g.PeakMemory(nil)
	if gp[0] != 32 {
		t.Fatalf("GPipe device 0 peak = %d, want 32", gp[0])
	}
}

// TestOneFOneBGPipeClosedForms holds 1F1B and GPipe on a uniform V-shape to
// their closed forms: both take (N+D−1)·(fwd+bwd) — D−1 warmup forwards, N
// fwd+bwd pairs at the last stage, D−1 draining backwards — and 1F1B keeps
// min(D−i, N) micro-batches in flight on device i where GPipe keeps all N.
func TestOneFOneBGPipeClosedForms(t *testing.T) {
	for d := 2; d <= 8; d++ {
		for _, fb := range [][2]int{{1, 2}, {1, 3}, {2, 4}, {3, 5}} {
			p, err := placement.VShape(placement.Config{Devices: d, Fwd: fb[0], Bwd: fb[1]})
			if err != nil {
				t.Fatal(err)
			}
			for n := 1; n <= 24; n++ {
				one, err := OneFOneB(p, n)
				if err != nil {
					t.Fatal(err)
				}
				gp, err := GPipe(p, n)
				if err != nil {
					t.Fatal(err)
				}
				want := (n + d - 1) * (fb[0] + fb[1])
				if one.Makespan() != want || gp.Makespan() != want {
					t.Fatalf("D=%d fwd/bwd=%v n=%d: makespans 1F1B %d, GPipe %d, want %d", d, fb, n, one.Makespan(), gp.Makespan(), want)
				}
				onePeak, gpPeak := one.PeakMemory(nil), gp.PeakMemory(nil)
				for i := 0; i < d; i++ {
					if onePeak[i] != min(d-i, n) || gpPeak[i] != n {
						t.Fatalf("D=%d fwd/bwd=%v n=%d device %d: peaks 1F1B %d, GPipe %d, want %d and %d", d, fb, n, i, onePeak[i], gpPeak[i], min(d-i, n), n)
					}
				}
			}
		}
	}
}

func TestOneFOneBRejectsTP(t *testing.T) {
	m, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OneFOneB(m, 4); err == nil {
		t.Fatal("1F1B accepted a tensor-parallel placement")
	}
}

func TestOneFOneBPlusOnMShape(t *testing.T) {
	m, err := placement.MShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 8, 24} {
		s, err := OneFOneBPlus(m, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		validate(t, s, n)
	}
	// 1F1B+ on M-shape leaves bubbles (Table II: 25% for GPT).
	s, err := OneFOneBPlus(m, 48)
	if err != nil {
		t.Fatal(err)
	}
	br := SteadyBubble(s)
	if br < 0.05 {
		t.Fatalf("1F1B+ bubble = %f; expected a clearly positive bubble", br)
	}
	if br > 0.5 {
		t.Fatalf("1F1B+ bubble = %f; implausibly large", br)
	}
}

func TestOneFOneBPlusOnNNShape(t *testing.T) {
	nn, err := placement.NNShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := OneFOneBPlus(nn, 24)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, s, 24)
}

func TestOneFOneBPlusEqualsOneFOneBWithoutTP(t *testing.T) {
	p := vshape(t, 4)
	a, err := OneFOneB(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OneFOneBPlus(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan() != b.Makespan() {
		t.Fatalf("makespans differ: %d vs %d", a.Makespan(), b.Makespan())
	}
}

func TestGPipeValid(t *testing.T) {
	p := vshape(t, 4)
	for _, n := range []int{1, 4, 16} {
		s, err := GPipe(p, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		validate(t, s, n)
	}
}

func TestGPipeForwardsBeforeBackwards(t *testing.T) {
	p := vshape(t, 4)
	s, err := GPipe(p, 6)
	if err != nil {
		t.Fatal(err)
	}
	// On the first device, every forward starts before every backward.
	lastFwd, firstBwd := -1, math.MaxInt
	for _, it := range s.DeviceItems(0) {
		if s.P.Stages[it.Stage].Kind == sched.Forward {
			if it.Start > lastFwd {
				lastFwd = it.Start
			}
		} else if it.Start < firstBwd {
			firstBwd = it.Start
		}
	}
	if lastFwd > firstBwd {
		t.Fatalf("GPipe interleaved fwd (last %d) and bwd (first %d) on device 0", lastFwd, firstBwd)
	}
}

func TestChimeraDirectValid(t *testing.T) {
	x, err := placement.XShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4, 16} {
		s, err := ChimeraDirect(x, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		validate(t, s, n)
	}
}

func TestChimeraDirectBeatsGPipe(t *testing.T) {
	x, err := placement.XShape(placement.Config{Devices: 4})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ChimeraDirect(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	g, err := GPipe(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan() > g.Makespan() {
		t.Fatalf("chimera %d slower than gpipe %d", c.Makespan(), g.Makespan())
	}
}

func TestChimeraRejectsNonBidirectional(t *testing.T) {
	p := vshape(t, 4)
	if _, err := ChimeraDirect(p, 4); err == nil {
		t.Fatal("chimera accepted a unidirectional placement")
	}
}

func TestSequential(t *testing.T) {
	p := vshape(t, 4)
	s, err := Sequential(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	validate(t, s, 3)
	if got, want := s.Makespan(), 3*12; got != want {
		t.Fatalf("makespan = %d, want %d", got, want)
	}
}

func TestTensorParallelPlacement(t *testing.T) {
	p := vshape(t, 4)
	tp := TensorParallelPlacement(p, 130)
	if err := tp.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range tp.Stages {
		if len(tp.Stages[i].Devices) != 4 {
			t.Fatalf("stage %d not sharded over all devices", i)
		}
	}
	// fwd time 1 → ceil(1·1.3/4) = 1; bwd 2 → ceil(2.6/4) = 1.
	if tp.Stages[0].Time != 1 || tp.Stages[4].Time != 1 {
		t.Fatalf("sharded times = %d/%d", tp.Stages[0].Time, tp.Stages[4].Time)
	}
	// A single micro-batch runs strictly sequentially over stages.
	s, err := Sequential(tp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Makespan(); got != 8 {
		t.Fatalf("TP single-micro latency = %d, want 8", got)
	}
	// Latency is below the pipelined placement's single-micro latency (12).
	if got := s.Makespan(); got >= 12 {
		t.Fatalf("TP latency %d not below pipeline chain 12", got)
	}
}

func TestTensorParallelOverheadFloor(t *testing.T) {
	p := vshape(t, 4)
	tp := TensorParallelPlacement(p, 0) // clamped to 100
	if tp.Stages[0].Time < 1 {
		t.Fatal("time must stay positive")
	}
}

func TestBaselinesRejectZeroMicroBatches(t *testing.T) {
	p := vshape(t, 4)
	if _, err := OneFOneB(p, 0); err == nil {
		t.Fatal("n=0 accepted by 1F1B")
	}
	if _, err := GPipe(p, 0); err == nil {
		t.Fatal("n=0 accepted by GPipe")
	}
	if _, err := Sequential(p, 0); err == nil {
		t.Fatal("n=0 accepted by Sequential")
	}
}

func TestSteadyBubbleSequentialVsPipelined(t *testing.T) {
	p := vshape(t, 4)
	seq, err := Sequential(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	pip, err := OneFOneB(p, 16)
	if err != nil {
		t.Fatal(err)
	}
	if SteadyBubble(seq) <= SteadyBubble(pip) {
		t.Fatalf("sequential bubble %f should exceed 1F1B bubble %f",
			SteadyBubble(seq), SteadyBubble(pip))
	}
}
