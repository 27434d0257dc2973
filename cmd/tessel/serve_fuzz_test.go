package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tessel"
	"tessel/internal/core"
	"tessel/internal/repetend"
	"tessel/internal/sched"
)

// decodeSearchRequestTwoPass is the request decode decodeSearchRequest
// replaced, kept as the reference: the body into a struct whose placement is
// a json.RawMessage, then that placement a second time through
// DecodePlacement.
func decodeSearchRequestTwoPass(body []byte) (searchRequest, error) {
	var wire struct {
		Placement json.RawMessage      `json:"placement"`
		Options   searchRequestOptions `json:"options"`
		Tenant    string               `json:"tenant"`
	}
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return searchRequest{}, err
	}
	if len(wire.Placement) == 0 {
		return searchRequest{}, errors.New("request needs a placement")
	}
	p, err := tessel.DecodePlacement(bytes.NewReader(wire.Placement))
	return searchRequest{Placement: p, Options: wire.Options, Tenant: wire.Tenant}, err
}

// FuzzSearchRequest holds the one-pass /v1/search body decode to the two-pass
// reference: on every input both accept or both refuse (a 400 either way),
// and what both accept is the same request — the same placement Fingerprint,
// the key of the serving cache, the same options and tenant. It holds the
// request memo to the decode the same way, on a miss and on the hit that
// follows, and a body one byte off a memoized one to a decode of its own. No
// input may panic. The seeds are the bodies the serve tests post (the wire
// test's escaped name, the admission tests' tenants and allow_degraded, the
// malformed ones), and what a member-by-member decode could get wrong:
// repeated and case-folded member names, a placement of the wrong type that a
// later one replaces, null, trailing bytes, and nesting at encoding/json's
// depth limit of 10,000.
func FuzzSearchRequest(f *testing.F) {
	ps := hotPlacements(f)
	ps[2].Name = `m "quoted" <&> é` + "\u2028"
	for i, p := range ps {
		f.Add(searchBody(f, p, 8+i, i%2*8))
	}
	chain := string(chainJSON(3))
	deep := func(depth int) string { return strings.Repeat("[", depth) + strings.Repeat("]", depth) }
	for _, body := range []string{
		`{"placement":` + chain + `,"options":{"n":6,"allow_degraded":true},"tenant":"acme"}`,
		`{"placement":` + chain + `,"options":{"n":4,"solver_workers":2,"simple_compaction":true}}`,
		`{"placement":` + chain + `,"options":{"n":4,"max_nr":-1}}`,
		`{not json`,
		`{"options":{"n":4}}`,
		`{"placement":{"name":"x","num_devices":1,"stages":[{"name":"a","time":1,"devices":[]}],"deps":[[]]}}`,
		`{"placement":` + chain + `,"placement":{"name":"y"}}`,
		`{"placement":{"name":"y"},"PLACEMENT":` + chain + `}`,
		`{"placement":5,"placement":` + chain + `}`,
		`{"placement":` + chain + `,"placement":5}`,
		`{"placement":` + chain + `,"placement":null}`,
		`{"Placement":` + chain + `,"optionſ":{"n":3},"TENANT":"t","options":{"memory":9}}`,
		`{"placement":` + chain + `,"options":{"n":2},"options":null,"tenant":null}`,
		`{"placement":` + chain + `,"options":[1],"tenant":"t"}`,
		`{"placement":` + chain + `,"tenant":7}`,
		`{"placement":` + chain + `} trailing {{{`,
		`{"placement":` + chain + `,"x":` + deep(9999) + `}`,
		`{"placement":` + chain + `,"x":` + deep(10000) + `}`,
		`{"placement":5,"x":` + deep(10000) + `,"placement":` + chain + `}`,
		`null`, `[]`, `"s"`, ``, `{}`, `{"placement":`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := decodeSearchRequest(body)
		want, wantErr := decodeSearchRequestTwoPass(body)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("one-pass decode: %v; two-pass decode: %v; body %.300q", gotErr, wantErr, body)
		}
		if gotErr == nil {
			sameRequest(t, "one-pass decode", got, "two-pass decode", want)
		}

		// Through a fresh memo twice, a miss and then a hit: each is the
		// decode's verdict and request, and only an accepted body that fits
		// is stored.
		m := newRequestMemo()
		var stored *tessel.Placement
		for _, pass := range []string{"memo miss", "memo hit"} {
			memo, err := m.decode(body)
			if fmt.Sprint(err) != fmt.Sprint(gotErr) {
				t.Fatalf("%s: %v; decode: %v; body %.300q", pass, err, gotErr, body)
			}
			if held := memoHeld(m); held != 0 && (gotErr != nil || len(body) > memoMaxBody) {
				t.Fatalf("%s: memo holds %d entries", pass, held)
			}
			if err != nil {
				continue
			}
			sameRequest(t, pass, memo, "decode", got)
			if stored == nil {
				stored = memo.Placement
			} else if memo.Placement != stored && len(body) <= memoMaxBody {
				t.Fatalf("a repeated body of %d bytes was decoded again", len(body))
			}
		}

		// The body with its last byte changed is another body: it is
		// decoded, never served from the entry of the first.
		if len(body) == 0 {
			return
		}
		other := bytes.Clone(body)
		other[len(other)-1]++
		memo, err := m.decode(other)
		ref, refErr := decodeSearchRequest(other)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("changed body through the memo: %v; decode: %v", err, refErr)
		}
		if err == nil {
			sameRequest(t, "changed body through the memo", memo, "decode", ref)
			if stored != nil && memo.Placement == stored {
				t.Fatal("the changed body was served from the entry of the first")
			}
		}
	})
}

// sameRequest fails t unless a and b are the same request: the same placement
// Fingerprint, the key of the serving cache, the same options and tenant.
func sameRequest(t *testing.T, aName string, a searchRequest, bName string, b searchRequest) {
	t.Helper()
	if fa, fb := sched.Fingerprint(a.Placement), sched.Fingerprint(b.Placement); fa != fb || a.Options != b.Options || a.Tenant != b.Tenant {
		t.Fatalf("%s %s %+v %q; %s %s %+v %q", aName, fa, a.Options, a.Tenant, bName, fb, b.Options, b.Tenant)
	}
}

// FuzzSearchResponseHead holds the hand-written response head to
// json.MarshalIndent of referenceHead, the struct the reflective encoder
// took, for the same (res, info): the same bytes, the closing brace aside, or
// the same error. Every integer of the result is read as a varint from nums
// (zero once they run out), so they reach negative and 64-bit values; the
// first two are SolverNodes and Phase.Repetend in nanoseconds, whose quotient
// is nodes_per_sec. flags sets the six booleans; an empty assign makes a
// result without a repetend and any other one a repetend whose assignment is
// its varints after the first byte, an empty one included. The seeds cover
// nodes_per_sec and bubble_rate on both sides of 1e-6 and 1e21, where
// encoding/json switches to the 'e' form, and bubble_rate at −0, the smallest
// and largest float, NaN and ±Inf, which both encoders must refuse with the
// same error; also a fingerprint needing escapes and a long assignment.
func FuzzSearchResponseHead(f *testing.F) {
	varints := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	long := []byte{1}
	for i := 0; i < 300; i++ {
		long = binary.AppendVarint(long, int64(i%7-1))
	}
	fp := strings.Repeat("0123456789abcdef", 4)
	for _, c := range []struct {
		fp     string
		flags  uint8
		nums   []byte
		assign []byte
		bubble float64
	}{
		{fp, 0, varints(1_500_000, 1e9, 12, 360, 300, 30, 3), varints(0, 1, 0, 2), 0.2},
		{fp, 0x3f, varints(1, 1e15, math.MaxInt64, math.MinInt64, -1, 0, 1<<40), nil, 1e-6},
		{"", 0x15, varints(1, 1e15+1), []byte{0}, math.Nextafter(1e-6, 0)},
		{fp, 0, varints(1e12, 1), nil, math.Nextafter(1e21, 0)},
		{fp, 0, varints(999_999_999_999, 1), nil, 1e21},
		{`"<&>` + " \xff", 0x2a, varints(-5, 3), long, math.Copysign(0, -1)},
		{fp, 0, varints(math.MaxInt64, 1), nil, math.MaxFloat64},
		{fp, 0, varints(1, math.MaxInt64), nil, 5e-324},
		{fp, 0, nil, nil, math.NaN()},
		{fp, 0, nil, nil, math.Inf(1)},
		{fp, 0, varints(7, 0), nil, math.Inf(-1)},
	} {
		f.Add(c.fp, c.flags, c.nums, c.assign, c.bubble)
	}
	f.Fuzz(func(t *testing.T, fingerprint string, flags uint8, nums, assign []byte, bubble float64) {
		varint := func(b *[]byte) int64 {
			v, n := binary.Varint(*b)
			if n <= 0 {
				*b = nil
				return 0
			}
			*b = (*b)[n:]
			return v
		}
		next := func() int64 { return varint(&nums) }
		flag := func(i uint) bool { return flags>>i&1 == 1 }
		info := tessel.CacheInfo{Fingerprint: fingerprint, Hit: flag(0), Shared: flag(1), Degraded: flag(2), PeerHit: flag(3)}
		var res core.Result
		st := &res.Stats
		st.SolverNodes, st.Phase.Repetend = next(), time.Duration(next())
		res.N, res.Makespan, res.LowerBound, res.BubbleRate = int(next()), int(next()), int(next()), bubble
		if len(assign) > 0 {
			r := &repetend.Repetend{Period: int(next()), NR: int(next()), Assign: repetend.Assignment{}}
			for rest := assign[1:]; len(rest) > 0; {
				r.Assign = append(r.Assign, int(varint(&rest)))
			}
			res.Repetend = r
		}
		st.Assignments, st.Solved, st.Pruned, st.Improved, st.NRSwept = int(next()), int(next()), int(next()), int(next()), int(next())
		st.SolverMemoHits, st.WarmupNodes, st.CooldownNodes = next(), next(), next()
		st.PeriodProbes, st.PeriodRelaxations, st.LocalSearchSwaps = next(), next(), next()
		st.OrderChecks, st.OrderPruned, st.OrderNodes, st.PrefixChecks, st.PrefixCuts = next(), next(), next(), next(), next()
		st.EarlyExit, st.Truncated, st.Total = flag(4), flag(5), time.Duration(next())
		want, wantErr := json.MarshalIndent(referenceHead(&res, info), "", "  ")
		got, err := appendSearchHead([]byte("prefix"), &res, info)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("head writer: %v; MarshalIndent: %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if got = append(got, "\n}"...); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("head differs from MarshalIndent\n got: %s\nwant: prefix%s", got, want)
		}
	})
}
