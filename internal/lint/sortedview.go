package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
	"golang.org/x/tools/go/types/typeutil"
)

// Sortedview checks the sorted-view contract of the estimation entry
// points: a slice parameter whose name contains "sorted" (CheckIIDSorted,
// IIDState.ReportSorted, MergeSorted, evt's fitExpTailUpper, ...) declares
// an ascending-sorted precondition, and the stats layer deliberately does
// not re-verify it on every call (that would erase the sort-once win). This
// analyzer traces each argument at such a position back to a sorted source:
//
//   - a call to a function or method whose name contains "sorted" (but not
//     "unsorted"): stats.SortedCopy, stats.MergeSorted, slices.Sorted, an
//     interface accessor like SampleView.TailSorted — producer names carry
//     the invariant the same way parameter names do;
//   - a call to a same-package helper all of whose return statements are
//     themselves sorted sources (taint through return: a merge helper
//     propagates provenance even without a Sorted-ish name);
//   - a field or method whose name contains "sorted" (FullSummary's and
//     ECDF's s.sorted, StreamingSummary's tailSorted — named fields carry
//     the invariant the same way named parameters do);
//   - a slice sorted in place by sort.Float64s / sort.Sort / slices.Sort;
//   - a composite literal whose elements are constants in ascending order,
//     or a nil slice (trivially sorted);
//   - a reslicing of any of the above; or
//   - another parameter that itself carries the "sorted" name, which
//     forwards the obligation to that function's own callers.
//
// Anything untraceable — a raw sample in run order, a merge done by hand —
// is exactly the stale-/unsorted-view misuse class the stats tests guard
// dynamically. Escape with "//pubtac:sorted <reason>" when sortedness holds
// for a reason the analyzer cannot see.
var Sortedview = &analysis.Analyzer{
	Name: "sortedview",
	Doc: "arguments to *Sorted entry points must be traceable to a sorted source\n\n" +
		"A []float64 parameter named *sorted* is an ascending-sorted-view precondition;\n" +
		"arguments must come from stats.SortedCopy/MergeSorted, a .Sorted field, an\n" +
		"in-place sort, or another *sorted* parameter. Escape with //pubtac:sorted <reason>.",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runSortedview,
}

// sortedProducerName reports whether a callee name declares an
// ascending-sorted result by convention: it contains "sorted" (SortedCopy,
// MergeSorted, slices.Sorted, TailSorted accessors) without negating it
// ("unsorted"). Matched on the bare name so package helpers and interface
// methods qualify alike.
func sortedProducerName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "sorted") && !strings.Contains(l, "unsorted")
}

// inPlaceSorters sort their first argument in place.
var inPlaceSorters = map[string]bool{
	"sort.Float64s": true,
	"sort.Ints":     true,
	"sort.Strings":  true,
	"sort.Sort":     true,
	"sort.Stable":   true,
	"slices.Sort":   true,
}

func runSortedview(pass *analysis.Pass) (interface{}, error) {
	esc := collectEscapes(pass)
	// Function declarations of this package, for taint-through-return: a
	// call to a helper qualifies when every return it can take is itself a
	// sorted source.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[obj] = fd
				}
			}
		}
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, push bool, stack []ast.Node) bool {
		if !push {
			return true
		}
		call := n.(*ast.CallExpr)
		fn := typeutil.Callee(pass.TypesInfo, call)
		if fn == nil {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return true
		}
		for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
			p := sig.Params().At(i)
			if !sortedParam(p) {
				continue
			}
			arg := call.Args[i]
			tr := &tracer{pass: pass, fn: enclosingFunc(stack), decls: decls,
				seen: make(map[types.Object]bool), tracing: make(map[*types.Func]bool)}
			if tr.sortedSource(arg) {
				continue
			}
			if esc.covers("sorted", call) {
				continue
			}
			pass.Reportf(arg.Pos(), "argument %q of %s must be an ascending-sorted view but is not traceable to one (stats.SortedCopy, stats.MergeSorted, a .Sorted field, an in-place sort, or a *sorted* parameter); escape with //pubtac:sorted <reason> if sortedness holds another way", p.Name(), fn.Name())
		}
		return true
	})
	return nil, nil
}

// sortedParam reports whether p declares a sorted-view precondition: a
// slice parameter whose name contains "sorted".
func sortedParam(p *types.Var) bool {
	if _, isSlice := p.Type().Underlying().(*types.Slice); !isSlice {
		return false
	}
	return strings.Contains(strings.ToLower(p.Name()), "sorted")
}

// enclosingFunc returns the innermost function declaration or literal on
// the inspector stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// tracer decides whether an expression is traceable to a sorted source
// within one function body (descending through same-package helper returns).
type tracer struct {
	pass    *analysis.Pass
	fn      ast.Node // enclosing FuncDecl/FuncLit; nil at package scope
	decls   map[*types.Func]*ast.FuncDecl
	seen    map[types.Object]bool
	tracing map[*types.Func]bool // recursion guard for taint-through-return
}

func (tr *tracer) sortedSource(e ast.Expr) bool {
	if tv, ok := tr.pass.TypesInfo.Types[e]; ok && tv.IsNil() {
		return true // a nil slice is trivially sorted
	}
	switch e := e.(type) {
	case *ast.ParenExpr:
		return tr.sortedSource(e.X)
	case *ast.SliceExpr:
		return tr.sortedSource(e.X)
	case *ast.CallExpr:
		if fn := typeutil.Callee(tr.pass.TypesInfo, e); fn != nil {
			if sortedProducerName(fn.Name()) {
				return true
			}
			if f, ok := fn.(*types.Func); ok {
				return tr.returnsSorted(f)
			}
		}
		return false
	case *ast.SelectorExpr:
		// A field or method value whose name carries the invariant
		// (ECDF's unexported e.sorted, StreamingSummary's tailSorted).
		return strings.Contains(strings.ToLower(e.Sel.Name), "sorted")
	case *ast.CompositeLit:
		return tr.ascendingLiteral(e)
	case *ast.Ident:
		obj := tr.pass.TypesInfo.Uses[e]
		if obj == nil || tr.seen[obj] {
			return false
		}
		tr.seen[obj] = true
		if strings.Contains(strings.ToLower(obj.Name()), "sorted") && tr.isParam(obj) {
			return true
		}
		return tr.localSorted(obj)
	}
	return false
}

// returnsSorted reports whether fn is a same-package single-result helper
// all of whose return statements are sorted sources — provenance taints
// through the return even when the helper's name says nothing (the
// reservoir-merge helpers of the streaming summaries are the motivating
// case). Recursive helpers and naked returns stay untraceable.
func (tr *tracer) returnsSorted(fn *types.Func) bool {
	decl := tr.decls[fn]
	if decl == nil || decl.Body == nil || tr.tracing[fn] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() != 1 {
		return false
	}
	tr.tracing[fn] = true
	defer delete(tr.tracing, fn)
	found, allSorted := false, true
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // nested closures return for themselves
		}
		ret, isRet := n.(*ast.ReturnStmt)
		if !isRet {
			return true
		}
		found = true
		if len(ret.Results) != 1 {
			allSorted = false // naked return: untraceable
			return true
		}
		sub := &tracer{pass: tr.pass, fn: decl, decls: tr.decls,
			seen: make(map[types.Object]bool), tracing: tr.tracing}
		if !sub.sortedSource(ret.Results[0]) {
			allSorted = false
		}
		return true
	})
	return found && allSorted
}

// ascendingLiteral reports whether lit is a slice literal whose elements
// are all constants in non-decreasing order — sorted by inspection (the
// stats tests hand ReportSorted small literal views).
func (tr *tracer) ascendingLiteral(lit *ast.CompositeLit) bool {
	t := tr.pass.TypesInfo.TypeOf(lit)
	if t == nil {
		return false
	}
	if _, isSlice := t.Underlying().(*types.Slice); !isSlice {
		return false
	}
	var prev constant.Value
	for _, el := range lit.Elts {
		if _, isKV := el.(*ast.KeyValueExpr); isKV {
			return false // sparse literal: element order is not textual order
		}
		tv, ok := tr.pass.TypesInfo.Types[el]
		if !ok || tv.Value == nil || tv.Value.Kind() == constant.Unknown {
			return false
		}
		if prev != nil && constant.Compare(prev, token.GTR, tv.Value) {
			return false
		}
		prev = tv.Value
	}
	return true
}

// isParam reports whether obj is a parameter of the enclosing function.
func (tr *tracer) isParam(obj types.Object) bool {
	sig := tr.enclosingSig()
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i) == obj {
			return true
		}
	}
	return false
}

func (tr *tracer) enclosingSig() *types.Signature {
	switch fn := tr.fn.(type) {
	case *ast.FuncDecl:
		if obj, ok := tr.pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
			return obj.Type().(*types.Signature)
		}
	case *ast.FuncLit:
		if sig, ok := tr.pass.TypesInfo.TypeOf(fn).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// localSorted reports whether every assignment to obj inside the enclosing
// function is a sorted source, or the slice is sorted in place before use.
func (tr *tracer) localSorted(obj types.Object) bool {
	if tr.fn == nil {
		return false
	}
	assigned := false
	allSorted := true
	inPlace := false
	ast.Inspect(tr.fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				lobj := tr.pass.TypesInfo.Defs[id]
				if lobj == nil {
					lobj = tr.pass.TypesInfo.Uses[id]
				}
				if lobj != obj {
					continue
				}
				assigned = true
				// Position-matched rhs; multi-value assignments from one
				// call (x, err := f()) trace the call itself.
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs == nil || !tr.sortedSource(rhs) {
					allSorted = false
				}
			}
		case *ast.CallExpr:
			if fn, ok := typeutil.Callee(tr.pass.TypesInfo, n).(*types.Func); ok && inPlaceSorters[fullName(fn)] {
				if len(n.Args) > 0 {
					if id, ok := n.Args[0].(*ast.Ident); ok && tr.pass.TypesInfo.Uses[id] == obj {
						inPlace = true
					}
				}
			}
		}
		return true
	})
	return inPlace || (assigned && allSorted)
}

func fullName(fn *types.Func) string {
	if pkg := fn.Pkg(); pkg != nil {
		return pkg.Name() + "." + fn.Name()
	}
	return fn.Name()
}
