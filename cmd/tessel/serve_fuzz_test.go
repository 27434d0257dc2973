package main

import (
	"bytes"
	"encoding/json"
	"errors"
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
// the key of the serving cache, the same options and tenant. No input may
// panic. The seeds are the bodies the serve tests post (the wire test's
// escaped name, the admission tests' tenants and allow_degraded, the
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
		if gotErr != nil {
			return
		}
		if g, w := sched.Fingerprint(got.Placement), sched.Fingerprint(want.Placement); g != w || got.Options != want.Options || got.Tenant != want.Tenant {
			t.Fatalf("one-pass decode %s %+v %q; two-pass decode %s %+v %q", g, got.Options, got.Tenant, w, want.Options, want.Tenant)
		}
	})
}
