package load

import (
	"os"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

func TestPackagesLoadsAndChecksFromSource(t *testing.T) {
	pkgs, err := Packages(moduleRoot(t), "./internal/des", "./internal/sched")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.Info == nil {
			t.Fatalf("%s: missing type information", p.Path)
		}
		if len(p.Files) == 0 {
			t.Fatalf("%s: no files", p.Path)
		}
		for _, err := range p.TypeErrors {
			t.Errorf("%s: type error: %v", p.Path, err)
		}
	}
	if pkgs[0].Path != "parsched/internal/des" {
		t.Fatalf("unexpected first package %s", pkgs[0].Path)
	}
	// A declared type must be resolvable from the checked package.
	if obj := pkgs[0].Types.Scope().Lookup("Handle"); obj == nil {
		t.Fatal("des.Handle not found in checked package")
	}
}
