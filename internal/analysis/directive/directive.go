// Package directive parses the two source annotations the dyncq-lint
// analyzer suite runs on:
//
//	//dyncq:hot
//	    marks a function as part of the engine's allocation-audited hot
//	    path (the Commit → fan-out → item-arena path). The hotalloc
//	    analyzer checks only annotated functions.
//
//	//dyncq:allow <analyzer> <reason>
//	    suppresses findings of the named analyzer. Suppression is
//	    line-scoped and auditable: a trailing comment suppresses
//	    findings on its own line, a standalone comment (or comment
//	    group) suppresses findings on the first line after it. The
//	    reason is mandatory; the allow meta-test in internal/analysis
//	    fails the build on a reason-less or unknown-analyzer allow.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

const (
	hotPrefix   = "//dyncq:hot"
	allowPrefix = "//dyncq:allow"
)

// Allow is one parsed //dyncq:allow comment.
type Allow struct {
	// Analyzer is the analyzer name the allow addresses ("" when the
	// comment is malformed).
	Analyzer string
	// Reason is the mandatory free-text justification ("" when missing).
	Reason string
	// Pos is the position of the comment.
	Pos token.Pos
	// Line is the source line the allow suppresses findings on.
	Line int
	// File is the filename the comment appears in.
	File string
}

// ParseAllow parses the text of one comment. The second result reports
// whether the comment is an allow directive at all (malformed allows
// still return true, with empty Analyzer/Reason fields for the caller
// to report).
func ParseAllow(text string) (Allow, bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return Allow{}, false
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return Allow{}, false // e.g. //dyncq:allowance
	}
	fields := strings.Fields(rest)
	var a Allow
	if len(fields) >= 1 {
		a.Analyzer = fields[0]
	}
	if len(fields) >= 2 {
		a.Reason = strings.TrimSpace(rest[strings.Index(rest, fields[0])+len(fields[0]):])
	}
	return a, true
}

// IsHot reports whether the comment group marks its subject as hot.
func IsHot(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotPrefix || strings.HasPrefix(c.Text, hotPrefix+" ") {
			return true
		}
	}
	return false
}

// Index holds every allow directive of one package, keyed by the line
// it suppresses.
type Index struct {
	fset   *token.FileSet
	allows map[string]map[int][]Allow // file → suppressed line → allows
	All    []Allow                    // every allow, for meta-checks
}

// NewIndex scans the files' comments for allow directives.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	ix := &Index{fset: fset, allows: make(map[string]map[int][]Allow)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				a, ok := ParseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				a.Pos = c.Pos()
				a.File = pos.Filename
				// A trailing comment shares its line with code and
				// suppresses that line; a standalone comment group
				// suppresses the first line after the group.
				if onOwnLine(fset, f, c) {
					a.Line = fset.Position(cg.End()).Line + 1
				} else {
					a.Line = pos.Line
				}
				ix.All = append(ix.All, a)
				byLine := ix.allows[a.File]
				if byLine == nil {
					byLine = make(map[int][]Allow)
					ix.allows[a.File] = byLine
				}
				byLine[a.Line] = append(byLine[a.Line], a)
			}
		}
	}
	return ix
}

// onOwnLine reports whether no code shares the comment's line — i.e.
// the comment's start column is the first non-blank content. We check
// whether any declaration or statement of the file starts or ends on
// the comment's line before the comment's column.
func onOwnLine(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	sameLine := false
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || sameLine {
			return false
		}
		if n.Pos() > c.Pos() {
			return false
		}
		if fset.Position(n.End()).Line == line && n.End() <= c.Pos() {
			sameLine = true
			return false
		}
		return true
	})
	return !sameLine
}

// Allowed reports whether a finding of the named analyzer at pos is
// suppressed by an allow directive with a non-empty reason.
func (ix *Index) Allowed(analyzer string, pos token.Pos) bool {
	p := ix.fset.Position(pos)
	for _, a := range ix.allows[p.Filename][p.Line] {
		if a.Analyzer == analyzer && a.Reason != "" {
			return true
		}
	}
	return false
}

// Report emits a diagnostic through the pass unless an allow directive
// suppresses it.
func (ix *Index) Report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	if ix.Allowed(pass.Analyzer.Name, pos) {
		return
	}
	pass.Reportf(pos, format, args...)
}
