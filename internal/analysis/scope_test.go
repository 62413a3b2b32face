package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestLintScopesExist pins the analyzers' path lists to the tree. Scopes
// match by path suffix, so a scoped package that moves or disappears
// silently drops coverage, and an allowlisted file that moves or stops
// reading the clock leaves a stale grant behind.
func TestLintScopesExist(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	root := loader.ModuleRoot()

	for _, f := range WallClockAllowedFiles {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			t.Errorf("WallClockAllowedFiles: %v", err)
			continue
		}
		if !strings.Contains(string(data), "time.Now()") {
			t.Errorf("WallClockAllowedFiles: %s no longer reads the wall clock; drop the entry", f)
		}
	}

	for _, scope := range []struct {
		name string
		pkgs []string
	}{
		{"LockSafePackages", LockSafePackages},
		{"CtxFlowPackages", CtxFlowPackages},
	} {
		for _, p := range scope.pkgs {
			dir := filepath.Join(root, p)
			if strings.HasPrefix(p, "testdata/") {
				dir = filepath.Join(root, "internal", "analysis", p)
			}
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Errorf("%s: %s matches no Go package in the tree", scope.name, p)
			}
		}
		// The shared job service is the serving layer's spine.
		if !slices.Contains(scope.pkgs, "internal/server") {
			t.Errorf("%s lost internal/server, the shared job service", scope.name)
		}
	}
}
