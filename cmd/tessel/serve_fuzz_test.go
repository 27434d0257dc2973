package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tessel"
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
