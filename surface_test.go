package pubtac_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the exported package-level funcs and types that no
// non-test file uses but that stay on purpose, keyed "import/path.Name".
// Each carries a one-line reason: public API, reference arm, gated
// benchmark, or — for a few test-only helpers — paper notation or test
// support. Everything else exported must have a caller.
var surfaceAllowlist = map[string]string{
	"pubtac.Estimate":               "public API: names the estimate type PathAnalysis exposes",
	"pubtac.TACAnalysis":            "public API: names the TAC result type PathAnalysis exposes",
	"pubtac.If":                     "public API: structured IR builder for user programs",
	"pubtac.While":                  "public API: structured IR builder for user programs",
	"pubtac.WithConfig":             "public API: session option",
	"pubtac.WithModel":              "public API: session option",
	"pubtac.WithIIDHardFail":        "public API: session option",
	"pubtac/client.WithHTTPClient":  "public API: client option",
	"pubtac/client.WithHTTPTimeout": "public API: client option",

	"pubtac/internal/evt.FitExpTail":        "reference arm: slice fit behind FitExpTailSorted (TestSortedVariantsBitIdentical)",
	"pubtac/internal/evt.FitExpTailAuto":    "reference arm: slice fit behind FitExpTailAutoSorted; also BenchmarkAblationTailFit",
	"pubtac/internal/evt.CheckCV":           "reference arm: slice CV test behind CheckCVSorted (TestSortedVariantsBitIdentical)",
	"pubtac/internal/evt.NewComposite":      "reference arm: the ECDF-backed composite SummaryComposite replicates",
	"pubtac/internal/evt.FitGumbel":         "gated benchmark: BenchmarkAblationTailFit's block-maxima arm",
	"pubtac/internal/stats.CheckIID":        "reference arm: one-shot battery of the iid oracle pair",
	"pubtac/internal/stats.Autocorrelation": "reference arm: per-lag oracle for AutocorrelationsTo",
	"pubtac/internal/stats.GammaRegLower":   "reference arm: complement TestGammaRegIdentities checks GammaRegUpper against",

	"pubtac/internal/stats.MeanExcess":     "paper notation: the EVT mean-excess diagnostic, pinned by TestMeanExcess",
	"pubtac/internal/trace.Ins":            "paper notation: Equation 2's ins(M, x) operator, pinned by TestIns",
	"pubtac/internal/experiment.Section31": "paper notation: Section 3.1's worked examples (TestSection31MatchesPaper, BenchmarkSection31)",
	"pubtac/internal/trace.D":              "test support: literal trace notation proc's golden tests build traces with",
	"pubtac/internal/trace.I":              "test support: literal trace notation proc's golden tests build traces with",
	"pubtac/internal/trace.Concat":         "test support: literal trace notation proc's golden tests build traces with",
	"pubtac/internal/lint/linttest.Run":    "test support: the analysistest stand-in the lint tests drive",
}

// TestExportedSurfaceHasCallers stops the exported surface from growing
// back: it parses every non-test Go file of the root module and of the
// bench module (which imports internal packages, so its uses count), and
// fails on any exported package-level func or type that no non-test file
// uses and the allowlist does not name. A use is a reference from another
// package (pkg.Name) or from elsewhere in the declaring package.
func TestExportedSurfaceHasCallers(t *testing.T) {
	pkgs := parseModules(t, map[string]string{".": "pubtac", "bench": "pubtac/bench"})

	declared := map[string]token.Position{}
	used := map[string]bool{}
	for path, p := range pkgs {
		for _, f := range p.files {
			for name, pos := range exportedDecls(p.fset, f) {
				declared[path+"."+name] = pos
			}
			for name := range localUses(f) {
				used[path+"."+name] = true
			}
			for key := range importedUses(f, pkgs) {
				used[key] = true
			}
		}
	}

	var missing []string
	for key, pos := range declared {
		if !used[key] && surfaceAllowlist[key] == "" {
			missing = append(missing, pos.String()+": "+key)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("exported but no non-test caller: %s (delete it, unexport it, or allowlist it with a reason)", m)
	}
	for key := range surfaceAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		} else if used[key] {
			t.Errorf("allowlist entry %s is stale: it has a non-test caller now", key)
		}
	}
}

// parsedPkg is one directory's non-test files.
type parsedPkg struct {
	fset  *token.FileSet
	name  string
	files []*ast.File
}

// parseModules parses the non-test files of every package under each module
// root (directory → module path), skipping vendor/, testdata/ and hidden
// directories. Packages are keyed by import path.
func parseModules(t *testing.T, roots map[string]string) map[string]*parsedPkg {
	t.Helper()
	pkgs := map[string]*parsedPkg{}
	for root, module := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".") ||
					roots[path] != "") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			importPath := module
			if rel != "." {
				importPath += "/" + filepath.ToSlash(rel)
			}
			p := pkgs[importPath]
			if p == nil {
				p = &parsedPkg{fset: token.NewFileSet()}
				pkgs[importPath] = p
			}
			f, err := parser.ParseFile(p.fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.name = f.Name.Name
			p.files = append(p.files, f)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return pkgs
}

// exportedDecls returns the exported package-level funcs (not methods) and
// types a file declares.
func exportedDecls(fset *token.FileSet, f *ast.File) map[string]token.Position {
	out := map[string]token.Position{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out[d.Name.Name] = fset.Position(d.Name.Pos())
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					out[ts.Name.Name] = fset.Position(ts.Name.Pos())
				}
			}
		}
	}
	return out
}

// localUses returns the names a file references unqualified — uses of its
// own package's declarations. Declaring identifiers, selected members,
// struct field names and composite-literal keys are not uses.
func localUses(f *ast.File) map[string]bool {
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			skip[x.Name] = true
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.SelectorExpr:
			skip[x.Sel] = true
		case *ast.Field:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.KeyValueExpr:
			if id, ok := x.Key.(*ast.Ident); ok {
				skip[id] = true
			}
		}
		return true
	})
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !skip[id] && id.IsExported() {
			out[id.Name] = true
		}
		return true
	})
	return out
}

// importedUses returns "import/path.Name" for every pkg.Name selector in f
// whose pkg is an import of one of the parsed packages.
func importedUses(f *ast.File, pkgs map[string]*parsedPkg) map[string]bool {
	byName := map[string]string{}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || pkgs[path] == nil {
			continue
		}
		name := pkgs[path].name
		if imp.Name != nil {
			name = imp.Name.Name
		}
		byName[name] = path
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if x, ok := sel.X.(*ast.Ident); ok && byName[x.Name] != "" {
				out[byName[x.Name]+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}
