package lint

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// A directive is one parsed "//pubtac:<verb> <args>" comment.
type directive struct {
	verb string // "nondeterministic", "nopoll", "fastpath", "reference", "bench"
	args string // reason or pair name; may be empty (which analyzers report)
	pos  token.Pos
}

// parseDirective returns the directive in a single comment, if any.
func parseDirective(c *ast.Comment) (directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//pubtac:")
	if !ok {
		return directive{}, false
	}
	verb, args, _ := strings.Cut(text, " ")
	return directive{verb: verb, args: strings.TrimSpace(args), pos: c.Pos()}, true
}

// escapes indexes a pass's escape directives by verb and file:line, so
// analyzers can ask in O(1) whether a node is covered by one.
type escapes struct {
	pass  *analysis.Pass
	lines map[string]map[string]string // verb -> "file:line" -> reason
}

func collectEscapes(pass *analysis.Pass) *escapes {
	e := &escapes{pass: pass, lines: make(map[string]map[string]string)}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				m := e.lines[d.verb]
				if m == nil {
					m = make(map[string]string)
					e.lines[d.verb] = m
				}
				p := pass.Fset.Position(d.pos)
				m[lineKey(p.Filename, p.Line)] = d.args
			}
		}
	}
	return e
}

func lineKey(file string, line int) string {
	var b strings.Builder
	b.WriteString(file)
	b.WriteByte(':')
	// Lines are small; avoid fmt for the hot path of a whole-tree run.
	var buf [12]byte
	i := len(buf)
	for n := line; ; {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	b.Write(buf[i:])
	return b.String()
}

// covers reports whether an escape directive for verb sits on the node's
// starting line or on the line immediately above it. An escape with an
// empty argument does not count: the reason is part of the grammar, so a
// bare escape is reported at the escape site instead of silencing anything.
func (e *escapes) covers(verb string, node ast.Node) bool {
	m := e.lines[verb]
	if m == nil {
		return false
	}
	p := e.pass.Fset.Position(node.Pos())
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if reason, ok := m[lineKey(p.Filename, line)]; ok {
			if reason == "" {
				e.pass.Reportf(node.Pos(), "//pubtac:%s escape needs a reason argument", verb)
				return true // still escape: the missing reason is the finding
			}
			return true
		}
	}
	return false
}

// isTestFile reports whether the node's file is a _test.go file.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}
