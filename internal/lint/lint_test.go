package lint

// The analyzer tests follow the x/tools analysistest convention: each
// analyzer has a fixture package under testdata/src/<name>/ whose sources
// carry `// want "regex"` comments on the lines where a finding is
// expected. The harness loads the fixture with the production loader,
// runs one analyzer over its target packages, and requires an exact
// match: every expectation observed, every diagnostic expected. Waived
// and idiomatic (negative) cases are ordinary fixture lines with no want
// comment — an unexpected finding there fails the test.

import (
	"context"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// expectation is one `// want "regex"` comment in a fixture.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// parseWants extracts the expectations from a fixture package's comments.
func parseWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range splitQuoted(t, pos.Filename, pos.Line, m[1]) {
						re, err := regexp.Compile(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, q, err)
						}
						out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return out
}

// splitQuoted parses the `"re1" "re2"` payload of a want comment.
func splitQuoted(t *testing.T, file string, line int, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' {
			t.Fatalf("%s:%d: malformed want payload %q", file, line, s)
		}
		end := strings.Index(s[1:], `"`)
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want payload %q", file, line, s)
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

// loadFixture loads testdata/src/<name> with the production loader.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	pkgs, err := Load(context.Background(), filepath.Join("testdata", "src", name), "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", name)
	}
	return pkgs
}

// runFixture applies one analyzer to a fixture and matches diagnostics
// against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkgs := loadFixture(t, name)
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !pkg.Target {
			continue
		}
		if err := runAnalyzer(a, pkg, &diags); err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	checkExpectations(t, parseWants(t, pkgs), diags)
}

func checkExpectations(t *testing.T, wants []*expectation, diags []Diagnostic) {
	t.Helper()
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, DeterminismAnalyzer, "determinism") }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, CtxFlowAnalyzer, "ctxflow") }

// TestDirectivesAudit checks waiver hygiene enforcement: unknown analyzer
// names, missing justifications, and unknown directive kinds are findings.
// Expectations are listed here rather than as want comments because any
// trailing text on a waiver line becomes its justification.
func TestDirectivesAudit(t *testing.T) {
	pkgs := loadFixture(t, "directives")
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Target {
			diags = append(diags, auditDirectives(pkg, known)...)
		}
	}
	want := []struct {
		substr string
	}{
		{`unknown analyzer "nosuch"`},
		{`waiver for "determinism" has no justification`},
		{`unknown directive //tessel:frobnicate`},
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w.substr) {
			t.Errorf("finding %d = %q, want it to contain %q", i, diags[i].Message, w.substr)
		}
	}
}

// TestAnalyzersHaveDocs pins the suite's shape: determinism and ctxflow,
// in that order, each documented and runnable.
func TestAnalyzersHaveDocs(t *testing.T) {
	as := Analyzers()
	want := []string{"determinism", "ctxflow"}
	if len(as) != len(want) {
		t.Fatalf("suite has %d analyzers, want %v", len(as), want)
	}
	for i, a := range as {
		if a.Name != want[i] || a.Doc == "" || a.Run == nil {
			t.Fatalf("analyzer %d = %+v, want %q, documented and runnable", i, a, want[i])
		}
	}
}

// TestRunOnRepo runs the full suite over the repository exactly as CI
// does and requires a clean result: the tree's invariants hold and every
// waiver is justified. This is the dogfood test — it exercises the
// go-list loader on the real module, cross-package type identity, and
// every directive in the tree.
func TestRunOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	diags, err := Run(context.Background(), "../..", "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
