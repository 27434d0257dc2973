package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"tessel/internal/sched"
	"tessel/internal/schedcheck"
)

// replayed returns Extend(res, n) by the replayed path: solves through the
// template, merge and Validate, as before results were certified.
func replayed(t testing.TB, res *Result, n int, opts Options) *Result {
	t.Helper()
	certifiedOn = false
	defer func() { certifiedOn = true }()
	out, err := Extend(context.Background(), res, n, opts)
	if err != nil {
		t.Fatalf("n=%d replayed: %v", n, err)
	}
	return out
}

// sameExtension fails unless the certified extension got matches the
// replayed one want item for item, in makespan and in Stats.Truncated, and
// the independent checker accepts it.
func sameExtension(t testing.TB, what string, got, want *Result, memory int) {
	t.Helper()
	if !slices.Equal(got.Full.Items, want.Full.Items) {
		t.Fatalf("%s: certified schedule differs from the replayed one", what)
	}
	if got.Makespan != want.Makespan || got.Stats.Truncated != want.Stats.Truncated {
		t.Fatalf("%s: certified makespan %d truncated %t, replayed %d and %t",
			what, got.Makespan, got.Stats.Truncated, want.Makespan, want.Stats.Truncated)
	}
	if err := schedcheck.Check(got.Full, got.N, memory); err != nil {
		t.Fatalf("%s: certified schedule refused by the independent checker: %v", what, err)
	}
}

// translationBreak returns why next, the completion of one micro-batch more
// than cur, is not cur with one more repetend instance — makespan one period
// longer, every item from micro max(Assign) up one period and one
// micro-batch later — or "" when it is.
func translationBreak(cur, next *Result) string {
	r, k := cur.Repetend, cur.Placement.K()
	if next.Makespan != cur.Makespan+r.Period {
		return fmt.Sprintf("makespan %d at n+1, want %d + period %d", next.Makespan, cur.Makespan, r.Period)
	}
	starts := make([]int, next.N*k)
	for _, it := range next.Full.Items {
		starts[it.Micro*k+it.Stage] = it.Start
	}
	tail := slices.Max(r.Assign)
	for _, it := range cur.Full.Items {
		if it.Micro < tail {
			continue
		}
		if got, want := starts[(it.Micro+1)*k+it.Stage], it.Start+r.Period; got != want {
			return fmt.Sprintf("stage %d micro %d starts at %d; at n+1 micro %d starts at %d, want %d",
				it.Stage, it.Micro, it.Start, it.Micro+1, got, want)
		}
	}
	return ""
}

// TestCertifiedExtendMatchesReplayed is the differential test of the
// certified path. For every catalog placement at Workers 1 the cold search's
// schedule passes the independent checker, and at every n from N_R to
// 4·N_R + 64 and at 256 and 1024 the certified Extend equals the replayed
// one item for item, in makespan and in Stats.Truncated, and passes the
// checker. Every catalog placement is certified at firstTranslated's n0, and
// from there on an Extend runs no solve.
func TestCertifiedExtendMatchesReplayed(t *testing.T) {
	ctx := context.Background()
	for _, c := range catalogShapes {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, c.name)
			opts.Workers = 1
			memory := opts.Resolve(p).Memory
			res, err := Search(ctx, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := schedcheck.Check(res.Full, res.N, memory); err != nil {
				t.Fatalf("cold search refused by the independent checker: %v", err)
			}
			r := res.Repetend
			ns := []int{256, 1024}
			for n := r.NR; n <= 4*r.NR+64; n++ {
				ns = append(ns, n)
			}
			n0 := firstTranslated(p, r)
			for _, n := range ns {
				want := replayed(t, res, n, opts)
				solves := countSolves(t)
				got, err := Extend(ctx, res, n, opts)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				if cert := res.tmpl.cert.Load(); n >= n0 && cert != nil && solves.Load() != 0 {
					t.Fatalf("n=%d: %d solves on a certified result", n, solves.Load())
				}
				sameExtension(t, fmt.Sprintf("n=%d", n), got, want, memory)
			}
			if cert := res.tmpl.cert.Load(); cert == nil || cert.n0 != n0 {
				t.Fatalf("certificate %+v, want one issued at n0 = %d", cert, n0)
			}
		})
	}
}

// TestExtendTranslatesRandom is TestExtendTranslatesByOnePeriod and the
// certified differential over the random golden's placements (all 240 have
// a repetend): at every n from N_R to n_c + 2 (and at 64 without -short) the
// replayed completion passes the independent checker and the completion of
// n+1 is it translated by one period, and the certified Extend equals the
// replayed one. A placement whose completions do not translate from n0 on
// must be refused a certificate; none of the 240 fails to translate, and
// none is refused.
func TestExtendTranslatesRandom(t *testing.T) {
	ctx := context.Background()
	ps, memory := goldenRandomInputs(t)
	refused := 0
	for i, p := range ps {
		opts := Options{Memory: memory[i], N: 8, Workers: 1}
		res, err := Search(ctx, p, opts)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		r, capped := res.Repetend, opts.Resolve(p).Memory
		n0 := firstTranslated(p, r)
		last := n0 + r.NR + 2
		ns := []int{}
		for n := r.NR; n <= last; n++ {
			ns = append(ns, n)
		}
		if !testing.Short() {
			ns = append(ns, 64)
		}
		translates := true
		for _, n := range ns {
			cur := replayed(t, res, n, opts)
			if err := schedcheck.Check(cur.Full, n, capped); err != nil {
				t.Fatalf("%s n=%d: replayed schedule refused by the independent checker: %v", p.Name, n, err)
			}
			if why := translationBreak(cur, replayed(t, res, n+1, opts)); why != "" {
				t.Logf("%s n=%d (n0 %d): %s", p.Name, n, n0, why)
				translates = translates && n < n0
			}
		}
		for _, n := range ns {
			got, err := Extend(ctx, res, n, opts)
			if err != nil {
				t.Fatalf("%s n=%d: %v", p.Name, n, err)
			}
			sameExtension(t, fmt.Sprintf("%s n=%d", p.Name, n), got, replayed(t, res, n, opts), capped)
		}
		cert := res.tmpl.cert.Load()
		if cert == nil {
			t.Fatalf("%s: no certificate after Extends past n0 = %d", p.Name, n0)
		}
		if cert.n0 == 0 {
			refused++
		} else if !translates {
			t.Fatalf("%s: certified, but its completions do not translate from n0 = %d on", p.Name, n0)
		}
	}
	if refused != 0 {
		t.Fatalf("%d of %d placements refused a certificate, want none", refused, len(ps))
	}
}

// TestCertifyConcurrentFirstHits races goroutines through the first Extend
// of one shared result, each to its own n, on both sides of n0 (run under
// -race). Every schedule is the replayed path's, exactly one certificate is
// published, and later Extends neither replace it nor solve.
func TestCertifyConcurrentFirstHits(t *testing.T) {
	ctx := context.Background()
	p, opts := catalogPlacement(t, "k4")
	res, err := Search(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	n0 := firstTranslated(p, res.Repetend)
	ns := []int{n0 - 1, n0, n0 + 1, n0 + res.Repetend.NR, 40, 64, 256, 1000}
	want := make([]*Result, len(ns))
	for i, n := range ns {
		want[i] = replayed(t, untemplated(res), n, opts)
	}
	for round := 0; round < 5; round++ {
		shared := untemplated(res)
		got := make([]*Result, len(ns))
		errs := make([]error, len(ns))
		var wg sync.WaitGroup
		for i, n := range ns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = Extend(ctx, shared, n, opts)
			}()
		}
		wg.Wait()
		cert := shared.tmpl.cert.Load()
		if cert == nil || cert.n0 != n0 {
			t.Fatalf("round %d: certificate %+v after the race, want one at n0 = %d", round, cert, n0)
		}
		for i, n := range ns {
			if errs[i] != nil {
				t.Fatalf("n=%d: %v", n, errs[i])
			}
			sameCompletion(t, fmt.Sprintf("round %d n=%d", round, n), got[i], want[i])
			if sched.FingerprintSchedule(got[i].Full) != sched.FingerprintSchedule(want[i].Full) {
				t.Fatalf("round %d n=%d: fingerprint differs", round, n)
			}
		}
		solves := countSolves(t)
		var again sync.WaitGroup
		for i, n := range ns[1:] {
			again.Add(1)
			go func() {
				defer again.Done()
				if out, err := Extend(ctx, shared, n, opts); err != nil || !slices.Equal(out.Full.Items, want[i+1].Full.Items) {
					t.Errorf("round %d n=%d: again: %v", round, n, err)
				}
			}()
		}
		again.Wait()
		if shared.tmpl.cert.Load() != cert || solves.Load() != 0 {
			t.Fatalf("round %d: certificate replaced or %d solves after it was published", round, solves.Load())
		}
	}
}

// TestCertifyRefuses holds certify's verdict on two m4 variants. A
// completion that drifts in memory (every micro-batch leaves a forward's
// activation held, so each instance holds more) gets a refusal, and its
// Extends are the replayed path's. A placement with a device that hosts no
// stage is certified at n0: its cooldown's time base is taken over the
// devices that run a cooldown block, so the idle device, free from t = 0 at
// every n, does not hide that n's cooldown is n0's moved; at every n from N_R
// to 4·N_R + 64 and at 256 its Extend equals an untemplated completion,
// which solves every phase.
func TestCertifyRefuses(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name      string
		edit      func(*sched.Placement)
		certified bool
	}{
		{"drift", func(p *sched.Placement) {
			for i := range p.Stages {
				p.Stages[i].Mem = max(p.Stages[i].Mem, 0)
			}
		}, false},
		{"idle device", func(p *sched.Placement) { p.NumDevices++ }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, opts := catalogPlacement(t, "m4")
			c.edit(p)
			res, err := Search(ctx, p, opts)
			if err != nil {
				t.Fatal(err)
			}
			r, n0 := res.Repetend, firstTranslated(p, res.Repetend)
			ns := []int{n0, n0 + 1, 64}
			if c.certified {
				ns = []int{256}
				for n := r.NR; n <= 4*r.NR+64; n++ {
					ns = append(ns, n)
				}
			}
			for _, n := range ns {
				got, err := Extend(ctx, res, n, opts)
				if err != nil {
					t.Fatal(err)
				}
				want := replayed(t, res, n, opts)
				if c.certified {
					want = replayed(t, untemplated(res), n, opts)
				}
				sameExtension(t, fmt.Sprintf("n=%d", n), got, want, sched.Unbounded)
			}
			switch cert := res.tmpl.cert.Load(); {
			case cert == nil:
				t.Fatal("no certificate after Extends past n0")
			case c.certified && cert.n0 != n0:
				t.Fatalf("certificate %+v, want one issued at n0 = %d", cert, n0)
			case !c.certified && cert.n0 != 0:
				t.Fatalf("certificate %+v, want a refusal", cert)
			}
		})
	}
}
