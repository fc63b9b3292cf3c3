package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// Oraclepair mechanizes the fast-path/reference-oracle discipline: every
// declaration whose doc comment carries "//pubtac:fastpath <name>" must be
// matched by a "//pubtac:reference <name>" declaration in the same package,
// and at least one of the package's test files must mention both declared
// identifiers — the equivalence test that keeps the pair honest. The
// repository's pairs are the batched vs. uncompiled campaign replay, the
// incremental vs. one-shot i.i.d. battery, the indexed vs. full-scan TAC
// enumeration, the streaming vs. full-sample estimation summary and the
// remote-sharded vs. local campaign collection.
//
// The test-mention requirement is only evaluated when the pass includes
// test files (go vet analyzes each package twice, with and without its
// _test.go files; the check runs on the test-augmented unit so the plain
// unit does not false-positive).
var Oraclepair = &analysis.Analyzer{
	Name: "oraclepair",
	Doc: "every //pubtac:fastpath declaration needs a same-package //pubtac:reference and a test mentioning both\n\n" +
		"Fast paths are only trusted because a slower reference oracle shadows them and an\n" +
		"equivalence test compares the two; this analyzer refuses fast paths that lack\n" +
		"either half of that discipline.",
	Run: runOraclepair,
}

// pairDecl is one annotated declaration.
type pairDecl struct {
	ident string // declared identifier the annotation is attached to
	pos   token.Pos
}

func runOraclepair(pass *analysis.Pass) (interface{}, error) {
	fast := make(map[string]pairDecl)
	ref := make(map[string]pairDecl)

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				collectPairMarks(pass, d.Doc, d.Name, fast, ref)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						collectPairMarks(pass, docOf(s.Doc, d), s.Name, fast, ref)
					case *ast.ValueSpec:
						if len(s.Names) > 0 {
							collectPairMarks(pass, docOf(s.Doc, d), s.Names[0], fast, ref)
						}
					}
				}
			}
		}
	}

	names := make([]string, 0, len(fast))
	for name := range fast {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fd := fast[name]
		rd, ok := ref[name]
		if !ok {
			pass.Reportf(fd.pos, "fastpath %q (%s) has no matching //pubtac:reference declaration in this package: every fast path keeps its slow arm as a runtime oracle", name, fd.ident)
			continue
		}
		if fd.ident == rd.ident {
			pass.Reportf(fd.pos, "fastpath %q marks the same declaration %s as its own reference", name, fd.ident)
			continue
		}
		checkTestMention(pass, name, fd, rd)
	}
	return nil, nil
}

// docOf prefers the spec's own doc comment, falling back to the enclosing
// GenDecl's (the usual place for single-spec declarations).
func docOf(specDoc *ast.CommentGroup, d *ast.GenDecl) *ast.CommentGroup {
	if specDoc != nil {
		return specDoc
	}
	return d.Doc
}

func collectPairMarks(pass *analysis.Pass, doc *ast.CommentGroup, name *ast.Ident,
	fast, ref map[string]pairDecl) {
	if doc == nil {
		return
	}
	for _, c := range doc.List {
		d, ok := parseDirective(c)
		if !ok || (d.verb != "fastpath" && d.verb != "reference") {
			continue
		}
		if d.args == "" {
			pass.Reportf(name.Pos(), "//pubtac:%s on %s needs a pair name argument", d.verb, name.Name)
			continue
		}
		dst := fast
		if d.verb == "reference" {
			dst = ref
		}
		if prev, dup := dst[d.args]; dup {
			pass.Reportf(name.Pos(), "duplicate //pubtac:%s %q (already on %s)", d.verb, d.args, prev.ident)
			continue
		}
		dst[d.args] = pairDecl{ident: name.Name, pos: name.Pos()}
	}
}

// checkTestMention requires one test file in the pass to mention both the
// fastpath and reference identifiers — in code or in a comment (equivalence
// tests that drive the pair through a mode switch like UseReference name
// the arms in their doc comments). Skipped when the pass has no test files
// (go vet's plain unit; the test-augmented unit runs the check).
func checkTestMention(pass *analysis.Pass, name string, fd, rd pairDecl) {
	sawTest := false
	fastRe := wordRe(fd.ident)
	refRe := wordRe(rd.ident)
	for _, f := range pass.Files {
		if !isTestFile(pass, f.Pos()) {
			continue
		}
		sawTest = true
		words := fileWords(f)
		if fastRe.MatchString(words) && refRe.MatchString(words) {
			return
		}
	}
	if !sawTest {
		return
	}
	pass.Reportf(fd.pos, "oracle pair %q has no test file mentioning both %s and %s: the pair needs an equivalence test", name, fd.ident, rd.ident)
}

func wordRe(ident string) *regexp.Regexp {
	return regexp.MustCompile(`\b` + regexp.QuoteMeta(ident) + `\b`)
}

// fileWords renders a test file's identifiers and comments into one
// searchable string.
func fileWords(f *ast.File) string {
	var b strings.Builder
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			b.WriteString(id.Name)
			b.WriteByte(' ')
		}
		return true
	})
	for _, cg := range f.Comments {
		b.WriteString(cg.Text())
		b.WriteByte(' ')
	}
	return b.String()
}
