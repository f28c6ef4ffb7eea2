// Package analysistest runs one analyzer over a fixture package and checks
// its diagnostics against `// want "regexp"` comments in the fixture source,
// following the conventions of golang.org/x/tools/go/analysis/analysistest
// (which this stdlib-only tree cannot depend on; see the note in go.mod).
//
// A want comment sits on the line the diagnostic is expected on and may
// carry several quoted regexps for several diagnostics on that line:
//
//	c.SendCopy(1, 70000, buf) // want `tag 70000 .* reserved`
//
// Both double-quoted and backquoted regexps are accepted.  Lines with no
// want comment must produce no diagnostics; //lint:allow-suppressed findings
// count as not produced.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"agcm/internal/analysis"
	"agcm/internal/analysis/load"
)

// expectation is one unmatched want entry.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

// Run loads the fixture package(s) matched by pattern (e.g.
// "./testdata/src/commtag") and checks analyzer a against the want comments.
func Run(t *testing.T, a *analysis.Analyzer, pattern string) {
	t.Helper()
	pkgs, err := load.Packages("", pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("pattern %s matched no packages", pattern)
	}

	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					for _, src := range wantPatterns(t, c.Text) {
						re, err := regexp.Compile(src)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), src, err)
						}
						pos := pkg.Fset.Position(c.Pos())
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	diags, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	fset := pkgs[0].Fset
	for _, d := range diags {
		if !consume(wants, d.Position(fset), d.Message) {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", d.Position(fset), d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if w.re != nil {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// consume matches a diagnostic against the remaining expectations for its
// line, clearing the first match.
func consume(wants []*expectation, pos token.Position, message string) bool {
	for _, w := range wants {
		if w.re == nil || w.file != pos.Filename || w.line != pos.Line {
			continue
		}
		if w.re.MatchString(message) {
			w.re = nil
			return true
		}
	}
	return false
}

// wantPatterns extracts the quoted regexps of a `// want ...` comment.
func wantPatterns(t *testing.T, comment string) []string {
	t.Helper()
	text := strings.TrimPrefix(comment, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "want ") {
		return nil
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
	var out []string
	for rest != "" {
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("unterminated backquoted want pattern in %q", comment)
			}
			out = append(out, rest[1:1+end])
			rest = strings.TrimSpace(rest[end+2:])
		case '"':
			end := -1
			for i := 1; i < len(rest); i++ {
				if rest[i] == '\\' {
					i++
					continue
				}
				if rest[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				t.Fatalf("unterminated quoted want pattern in %q", comment)
			}
			out = append(out, strings.ReplaceAll(rest[1:end], `\"`, `"`))
			rest = strings.TrimSpace(rest[end+1:])
		default:
			t.Fatalf("malformed want comment %q: patterns must be quoted", comment)
		}
	}
	if len(out) == 0 {
		t.Fatalf("want comment %q carries no patterns", comment)
	}
	return out
}

// Fprint is a debugging helper: it renders diagnostics one per line.
func Fprint(fset *token.FileSet, diags []analysis.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s: [%s] %s\n", d.Position(fset), d.Analyzer, d.Message)
	}
	return b.String()
}
