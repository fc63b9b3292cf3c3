package lint_test

import (
	"testing"

	"pubtac/internal/lint"
	"pubtac/internal/lint/linttest"
)

// Each analyzer gets at least one failing case (a package whose findings
// are pinned by want comments) and one passing case (a package or file
// that must stay silent: out-of-scope code, directive escapes, test files,
// pool-mediated goroutines).

func TestDetrand(t *testing.T) {
	if err := lint.Detrand.Flags.Set("scope", "^detrand/a$"); err != nil {
		t.Fatal(err)
	}
	linttest.Run(t, "testdata", lint.Detrand, "detrand/a")
	linttest.Run(t, "testdata", lint.Detrand, "detrand/outside")
}

// TestDetrandBackoff pins the time.Sleep ban on the shape that motivated
// it: wall-clock retry pacing is flagged, the injected-clock twin of the
// same policy is silent.
func TestDetrandBackoff(t *testing.T) {
	if err := lint.Detrand.Flags.Set("scope", "^detrand/backoff$"); err != nil {
		t.Fatal(err)
	}
	linttest.Run(t, "testdata", lint.Detrand, "detrand/backoff")
}

func TestPoolonly(t *testing.T) {
	if err := lint.Poolonly.Flags.Set("pool", "poolonly/pool"); err != nil {
		t.Fatal(err)
	}
	linttest.Run(t, "testdata", lint.Poolonly, "poolonly/a")
	linttest.Run(t, "testdata", lint.Poolonly, "poolonly/pool")
}

func TestCtxpoll(t *testing.T) {
	linttest.Run(t, "testdata", lint.Ctxpoll, "ctxpoll/a")
}

func TestOraclepair(t *testing.T) {
	linttest.Run(t, "testdata", lint.Oraclepair, "oraclepair/good")
	linttest.Run(t, "testdata", lint.Oraclepair, "oraclepair/bad")
}

func TestBenchgate(t *testing.T) {
	linttest.Run(t, "testdata", lint.Benchgate, "benchgate/good")
	linttest.Run(t, "testdata", lint.Benchgate, "benchgate/bad")
}

func TestSuiteComplete(t *testing.T) {
	as := lint.Analyzers()
	if len(as) != 5 {
		t.Fatalf("Analyzers() = %d analyzers, want 5", len(as))
	}
	seen := map[string]bool{}
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incomplete (empty doc or missing run)", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
