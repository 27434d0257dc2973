package lint

// The rule tests follow the x/tools analysistest convention: each rule
// has a fixture package under testdata/src/<name>/ whose sources carry
// `// want "regex"` comments on the lines where a finding is expected. The
// harness loads the fixture with the production loader, runs one rule over
// its packages, and requires an exact match: every expectation observed,
// every finding expected. Waived and idiomatic (negative) cases are
// ordinary fixture lines with no want comment — an unexpected finding there
// fails the test.

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

// parseWants extracts the expectations from a fixture's comments.
func parseWants(t *testing.T, pkgs []*Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, pkg := range pkgs {
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

func fixtureDir(name string) string { return filepath.Join("testdata", "src", name) }

// runFixture applies one rule to every package of a fixture, bypassing
// Run's package filters, and matches its findings against the fixture's
// want comments.
func runFixture(t *testing.T, check func(*Package, *reporter), name string) {
	t.Helper()
	pkgs, err := Load(context.Background(), fixtureDir(name), "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", name)
	}
	wants := parseWants(t, pkgs)
	for _, pkg := range pkgs {
		r := &reporter{pkg: pkg}
		check(pkg, r)
		for _, f := range r.findings {
			matched := false
			for _, w := range wants {
				if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
					w.hit = true
					matched = true
					break
				}
			}
			if !matched {
				t.Errorf("unexpected finding: %s", f)
			}
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { runFixture(t, checkDeterminism, "determinism") }
func TestCtxFlowFixture(t *testing.T)     { runFixture(t, checkCtxFlow, "ctxflow") }

// TestDirectivesAudit checks waiver hygiene enforcement: unknown rule
// names, missing justifications, and unknown directive kinds are findings.
// Expectations are listed here rather than as want comments because any
// trailing text on a waiver line becomes its justification.
func TestDirectivesAudit(t *testing.T) {
	findings, err := Run(context.Background(), fixtureDir("directives"), "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{
		`unknown analyzer "nosuch"`,
		`waiver for "determinism" has no justification`,
		`unknown directive //tessel:frobnicate`,
	}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%v", len(findings), len(want), findings)
	}
	for i, w := range want {
		if findings[i].Rule != "directives" || !strings.Contains(findings[i].Message, w) {
			t.Errorf("finding %d = %s, want a directives finding containing %q", i, findings[i], w)
		}
	}
}

// TestRunOnRepo runs both rules over the repository and requires a clean
// result: the tree's invariants hold and every waiver is justified. This
// is the gate CI runs; it exercises the loader on the real module and
// every directive in the tree.
func TestRunOnRepo(t *testing.T) {
	findings, err := Run(context.Background(), "../..", "./...")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("finding: %s", f)
	}
}
