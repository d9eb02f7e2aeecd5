package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"
)

// allowedImports are the repository packages the benchmark may use: the
// stable entry points it drives plus the value types they take. Everything
// ROADMAP.md marks for deletion is absent on purpose, so a later PR that
// removes it is never blocked by this directory, which it may not edit.
var allowedImports = map[string]bool{
	"repro/internal/train":        true,
	"repro/internal/dist":         true,
	"repro/internal/data":         true,
	"repro/internal/serve":        true,
	"repro/internal/gateway":      true,
	"repro/internal/serve/client": true,
	"repro/internal/serve/api":    true,
	"repro/internal/serve/wire":   true,
	"repro/internal/nn":           true,
	"repro/internal/optim":        true,
	"repro/internal/comm":         true,
	"repro/internal/tensor":       true,
	"repro/internal/parallel":     true,
	"repro/internal/tfrecord":     true,
	"repro/internal/cosmo":        true,
}

// forbiddenNames are selectors and struct fields of allowed packages that
// are themselves on the deletion list or switch in-program tracing on.
var forbiddenNames = map[string]string{
	"Infer":         "Network.Infer is a superseded forward path; use InferBatch",
	"NewProfile":    "train.Profile is a superseded timing mechanism",
	"Profile":       "train.Profile is a superseded timing mechanism",
	"Progress":      "train.Progress is a superseded timing mechanism",
	"PhaseRecorder": "in-program tracing: the benchmark times from outside",
	"Timeline":      "in-program tracing: the benchmark times from outside",
	"Recorder":      "in-program tracing: the benchmark times from outside",
	"SetTrace":      "in-program tracing: the benchmark times from outside",
	"Trace":         "in-program tracing: the benchmark times from outside",
}

func TestImportSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.Contains(path, ".") || strings.HasPrefix(path, "repro/") {
					if !allowedImports[path] {
						t.Errorf("%s imports %s, which is outside the benchmark's stable surface", name, path)
					}
				}
			}
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if why, bad := forbiddenNames[n.Sel.Name]; bad {
						t.Errorf("%s: %s uses .%s — %s", name, fset.Position(n.Pos()), n.Sel.Name, why)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						if why, bad := forbiddenNames[key.Name]; bad {
							t.Errorf("%s: %s sets field %s — %s", name, fset.Position(n.Pos()), key.Name, why)
						}
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && strings.Contains(n.Value, "/predict\"") && !strings.Contains(n.Value, ":predict") {
						t.Errorf("%s: %s names the legacy /predict route", name, fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
}
