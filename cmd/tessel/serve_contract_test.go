package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestServeStatsGoldenBody pins the whole /v1/stats body — keys, order,
// indentation, values — to files captured at the commit before the engine
// counters moved onto one tagged struct: a fresh server, and one after a
// miss and a hit; since then the files lost only the four fields that went
// with the solver's root-split engine.
func TestServeStatsGoldenBody(t *testing.T) {
	s := newTestServer(t)
	s.ready.Store(true)
	check := func(golden string) {
		t.Helper()
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		s.mux().ServeHTTP(w, httptest.NewRequest("GET", "/v1/stats", nil))
		if got := w.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("/v1/stats body drifted from %s:\n%s", golden, got)
		}
	}
	check("testdata/stats_fresh.golden.json")

	body, err := json.Marshal(map[string]any{
		"placement": json.RawMessage(placementJSON(t)),
		"options":   map[string]any{"n": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if w := postSearch(t, s, string(body)); w.Code != 200 {
			t.Fatalf("search %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	check("testdata/stats_miss_hit.golden.json")
}

// TestServeFlagsDocumented keeps README's serve sections and the flag set
// in step: every registered flag must be named there, and every flag the
// sections name must still be registered. A flag is "named" as a backticked
// token starting with a dash (`-snapshot /path`) or as an argument on a
// `tessel serve …` command line.
func TestServeFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(readme)
	start := strings.Index(doc, "\n## Serving (`tessel serve`)")
	end := strings.Index(doc, "\n## Development")
	if start < 0 || end < start {
		t.Fatal("README.md: serve sections not found between \"## Serving (`tessel serve`)\" and \"## Development\"")
	}
	doc = doc[start:end]

	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`-([a-z][a-z-]*)").FindAllStringSubmatch(doc, -1) {
		named[m[1]] = true
	}
	cmdlineFlag := regexp.MustCompile(`(?:^| )-([a-z][a-z-]*)`)
	for _, line := range strings.Split(doc, "\n") {
		if _, cmdline, ok := strings.Cut(line, "tessel serve "); ok {
			for _, m := range cmdlineFlag.FindAllStringSubmatch(cmdline, -1) {
				named[m[1]] = true
			}
		}
	}

	fs := flag.NewFlagSet("tessel serve", flag.ContinueOnError)
	serveFlags(fs)
	registered := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		registered[f.Name] = true
		if !named[f.Name] {
			t.Errorf("serve flag -%s is not documented in README's serve sections", f.Name)
		}
	})
	var stale []string
	for name := range named {
		if !registered[name] {
			stale = append(stale, "-"+name)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("README's serve sections name flags `tessel serve` does not have: %s", strings.Join(stale, " "))
	}
}

// TestNewServerRejectsBadConfig: the two cross-flag checks fail server
// construction instead of starting a misconfigured replica.
func TestNewServerRejectsBadConfig(t *testing.T) {
	for _, args := range [][]string{
		{"-peers", "a:1,b:2"},
		{"-peers", "a:1,b:2", "-peer-self", "c:3"},
	} {
		if _, err := newServer(testConfig(t, args...)); err == nil {
			t.Errorf("newServer accepted %v", args)
		}
	}
}

// TestServeRequestOptionsContract pins the options /v1/search reads to a
// literal list, and the three it stopped reading — the repetend-compaction,
// local-search and lazy-search toggles, none of which could change a period
// for the better — to what happens to any unknown key: a 200, and the cache
// entry and schedule bytes of the same request without them.
func TestServeRequestOptionsContract(t *testing.T) {
	var names []string
	rt := reflect.TypeOf(searchRequestOptions{})
	for i := 0; i < rt.NumField(); i++ {
		names = append(names, rt.Field(i).Tag.Get("json"))
	}
	want := []string{"n", "memory", "max_nr", "max_assignments", "solver_nodes", "solver_timeout_ms", "allow_degraded"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("request options %v, want %v", names, want)
	}

	s := newTestServer(t)
	post := func(options json.RawMessage) (bool, []byte) {
		t.Helper()
		w := postOptions(t, s, options)
		if w.Code != 200 {
			t.Fatalf("options %s: status %d: %s", options, w.Code, w.Body.String())
		}
		var resp struct {
			CacheHit bool            `json:"cache_hit"`
			Schedule json.RawMessage `json:"schedule"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.CacheHit, resp.Schedule
	}
	hit, bare := post(json.RawMessage(`{"n": 6}`))
	if hit {
		t.Fatal("first search hit the cache")
	}
	// testdata/retired_options.json: n = 6 with all three toggles set true.
	old, err := os.ReadFile("testdata/retired_options.json")
	if err != nil {
		t.Fatal(err)
	}
	hit, retired := post(old)
	if !hit {
		t.Fatal("the retired toggles selected a cache class of their own")
	}
	if !bytes.Equal(retired, bare) {
		t.Fatalf("the retired toggles changed the schedule:\n%s\nwithout them:\n%s", retired, bare)
	}
}
