package lint

// The //tessel: comment directives. They are the linter half of a contract
// documented in CONTRIBUTING.md: annotations declare why a flagged construct
// is deterministic after all, and waivers record — with a mandatory
// justification — the reviewed places where a rule's letter is intentionally
// broken while its spirit holds.
//
//	//tessel:orderfree [reason]
//	    On (or directly above) a map-range statement: the loop's effect is
//	    independent of iteration order, e.g. because its results are
//	    sorted before use (waives the determinism map-range check).
//
//	//tessel:totalorder [reason]
//	    On (or directly above) a sort.Slice or slices.SortFunc call: the
//	    comparator is a documented total order (ties broken on every
//	    field), so the unstable sort is deterministic (waives the
//	    determinism check).
//
//	//tessel:waive:<analyzer> <justification>
//	    On (or directly above) any flagged line: suppress that analyzer
//	    there. The justification is mandatory; a waiver without one is
//	    itself a finding, as is a waiver naming an unknown analyzer.
//
// A line-level directive applies to the source line it ends on and to the
// line directly below it, so both trailing comments and comment-above
// placements work.

import (
	"go/ast"
	"go/token"
	"strings"
)

const directivePrefix = "//tessel:"

// directive is one parsed //tessel: comment.
type directive struct {
	pos  token.Pos
	kind string // "orderfree", "totalorder", "waive"
	arg  string // waive: the analyzer name
	// reason is the justification text after the directive word.
	reason string
}

// directiveIndex maps file name → line → the directives ending there.
type directiveIndex map[string]map[int][]directive

// indexDirectives parses every //tessel: comment in the files.
func indexDirectives(fset *token.FileSet, files []*ast.File) directiveIndex {
	idx := directiveIndex{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				p := fset.Position(c.End())
				lines := idx[p.Filename]
				if lines == nil {
					lines = map[int][]directive{}
					idx[p.Filename] = lines
				}
				lines[p.Line] = append(lines[p.Line], d)
			}
		}
	}
	return idx
}

func parseDirective(c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := text[len(directivePrefix):]
	word, reason, _ := strings.Cut(rest, " ")
	d := directive{pos: c.Pos(), reason: strings.TrimSpace(reason)}
	if name, ok := strings.CutPrefix(word, "waive:"); ok {
		d.kind = "waive"
		d.arg = name
		return d, true
	}
	d.kind = word
	return d, true
}

// at returns the directives applying to the given position: those ending
// on its line or on the line directly above.
func (p *Package) directivesAt(pos token.Pos) []directive {
	position := p.Fset.Position(pos)
	lines := p.directives[position.Filename]
	if lines == nil {
		return nil
	}
	var out []directive
	out = append(out, lines[position.Line]...)
	out = append(out, lines[position.Line-1]...)
	return out
}

// hasDirective reports whether a directive of the given kind applies to
// pos (same line or the line above).
func (p *Package) hasDirective(pos token.Pos, kind string) bool {
	for _, d := range p.directivesAt(pos) {
		if d.kind == kind {
			return true
		}
	}
	return false
}

// waived reports whether a //tessel:waive:<analyzer> directive with a
// justification applies to pos.
func (p *Package) waived(pos token.Pos, analyzer string) bool {
	for _, d := range p.directivesAt(pos) {
		if d.kind == "waive" && d.arg == analyzer && d.reason != "" {
			return true
		}
	}
	return false
}
