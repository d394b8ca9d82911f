// Command unused is a repo-local vet pass: it flags every package-level
// exported func, type, var or const under internal/ whose name appears as
// an identifier nowhere outside its own declaration, in any .go file of the
// tree (tests and the bench/ module included). It only parses, so it
// matches by name: it never reports a live identifier, but may miss a dead
// one whose name is also used elsewhere. Methods are out of scope, since a
// name scan cannot see that a method satisfies an interface.
//
// Usage, from the module root: go run ./ci/unused
//
// Directories named testdata, or starting with "." or "_", are skipped as
// the go tool skips them. Exit status 1 means findings.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	findings, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "unused:", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "unused: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// decl is one package-level exported declaration under internal/.
type decl struct {
	name     string
	pos, end token.Pos // the declaring spec or func, uses inside excluded
}

// check parses every .go file under root and returns one finding per
// unreferenced internal/ declaration, sorted by position.
func check(root string) ([]string, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	var decls []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(rel), "internal/") && !strings.HasSuffix(path, "_test.go") {
			decls = append(decls, exported(f)...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Every identifier occurrence, by name.
	uses := make(map[string][]token.Pos)
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], id.Pos())
			}
			return true
		})
	}

	var findings []string
	for _, d := range decls {
		used := false
		for _, p := range uses[d.name] {
			if p < d.pos || p >= d.end {
				used = true
				break
			}
		}
		if !used {
			findings = append(findings, fmt.Sprintf("%s: %s is exported but never referenced", fset.Position(d.pos), d.name))
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// exported lists f's package-level exported funcs, types, vars and consts.
func exported(f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out = append(out, decl{d.Name.Name, d.Pos(), d.End()})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, decl{s.Name.Name, s.Pos(), s.End()})
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out = append(out, decl{n.Name, s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	return out
}
