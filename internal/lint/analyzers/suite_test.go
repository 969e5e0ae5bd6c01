package analyzers_test

import (
	"path/filepath"
	"testing"

	"github.com/vmcu-project/vmcu/internal/lint"
	"github.com/vmcu-project/vmcu/internal/lint/analyzers"
	"github.com/vmcu-project/vmcu/internal/lint/linttest"
)

// TestSuiteSmoke runs the whole multichecker suite over one fixture
// package that violates several invariants at once: each analyzer's
// finding must surface from the combined run exactly as it does alone.
func TestSuiteSmoke(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "smoke"),
		"example.test/smoke", analyzers.All()...)
}

// TestRepoIsLintClean is the in-tree mirror of the CI gate
// `go run ./cmd/vmcu-lint ./...`: the entire repository must produce
// zero findings. Re-introducing any guarded violation — a write to a
// mutex-guarded field without its lock, a time.Now in internal/mcu, a
// netplan.Options field missing from the cache key — fails this test.
func TestRepoIsLintClean(t *testing.T) {
	root := linttest.ModuleRoot(t)
	findings, err := lint.Run(root, nil, analyzers.All())
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("repository is not lint-clean: %d finding(s)", len(findings))
	}
}

// TestSuiteNames pins the analyzer set: the names are part of the
// //lint:allow annotation surface, so removing or renaming one is a
// breaking change to every annotation in the tree.
func TestSuiteNames(t *testing.T) {
	want := []string{"lockguard", "nilnoop", "simclock", "cachekey", "errsentinel", "ledgerwrite", "spanrelease"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
}
