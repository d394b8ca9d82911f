package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckFindsDeadExport: in a fixture tree, an internal/ identifier
// referenced only inside its own declaration is flagged; one referenced
// from another package is not, nor is a type used only as a receiver, nor
// its method.
func TestCheckFindsDeadExport(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module sample\n\ngo 1.22\n")
	write("internal/lib/lib.go", `package lib

// Dead recurses, but nothing outside calls it.
func Dead(n int) int {
	if n == 0 {
		return 0
	}
	return Dead(n - 1)
}

func Used() int { return 1 }

type T struct{}

func (T) Method() {}
`)
	write("main.go", `package main

import "sample/internal/lib"

func main() { _ = lib.Used() }
`)

	findings, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "lib.go:4:1: Dead is exported but never referenced") {
		t.Errorf("want exactly the Dead finding, got:\n%s", strings.Join(findings, "\n"))
	}
}

// TestCheckCleanOnThisModule pins the repo itself clean: the CI step
// `go run ./ci/unused` must stay green.
func TestCheckCleanOnThisModule(t *testing.T) {
	// go test runs in this package's directory; reach the module root.
	findings, err := check("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Errorf("module has unused exports:\n%s", strings.Join(findings, "\n"))
	}
}
