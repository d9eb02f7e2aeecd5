package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// commandToken matches a command name: not part of a longer
	// hyphenated word (the x-cosmoflow-tensor media type), and with any
	// /v<N> schema suffix captured so schema IDs can be told apart.
	commandToken = regexp.MustCompile(`(?:^|[^\w-])cosmoflow-([a-z0-9]+)(/v[0-9])?`)
	// makeToken matches a make invocation where the docs write one: in
	// backticks, after &&, or at the start of a (code block) line — not the
	// verb in prose.
	makeToken   = regexp.MustCompile("(?m)(?:^[ \\t]*|`|&&[ \\t]*)make ([a-z][a-z0-9-]*)")
	makefileTgt = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):([^=]|$)`)
	// pathToken matches a repo path under internal/, examples/, e2e/ or
	// scripts/, bare or ./-prefixed, but not the tail of a longer path such
	// as an import.
	pathToken = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|examples|e2e|scripts)(?:/[\w.-]+)+)`)
	// codeSpan matches a backticked span; goRef a Go identifier inside one,
	// written pkg.Name or pkg.Type.Member with exported names.
	codeSpan = regexp.MustCompile("`[^`]+`")
	goRef    = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	// routeToken matches an HTTP route written METHOD /path. The path
	// stops at the first character a route cannot hold, so an optional
	// "[/{name}]" tail falls away, and needs one character past the slash,
	// so a method list such as "GET / PUT" is not read as the route "/".
	routeToken = regexp.MustCompile(`\b(?:GET|POST|PUT|DELETE)[ \t]+(/[\w{}:./-]+)`)
	// flagSpan matches a backticked span that opens with a command-line
	// flag, -name, and captures the name.
	flagSpan = regexp.MustCompile("^`-([a-zA-Z][\\w-]*)")
	// goToolFlags are flags of the go tool itself, which docs may name in
	// a `go test` invocation although no command here registers them.
	goToolFlags = map[string]bool{"benchtime": true}
	// argFlag matches a flag, -name or --name, that starts a word of a
	// command's arguments, and captures the name; shellSep ends those
	// arguments.
	argFlag  = regexp.MustCompile(`(?:^|\s)--?([a-zA-Z][\w-]*)`)
	shellSep = regexp.MustCompile(`&&|\|\|?|;`)
)

// TestDocsNameOnlyExistingCommands keeps the docs from pointing at commands,
// make targets, paths, Go identifiers or HTTP routes that no longer exist:
// every cosmoflow-<name> must be a directory under cmd/, every
// `make <target>` a Makefile target, every internal/, examples/, e2e/ or scripts/
// path must exist, every backticked pkg.Name or pkg.Type.Member naming a
// package under internal/ must be a declaration, method or field of that
// package, and every METHOD /path must be a route the serve or gateway mux
// registers and, below a subtree pattern, a handler resolves (see
// routeRegistered), and every backticked span of a Markdown file that
// opens with -name must name a flag some cmd/*/main.go registers (see
// cmdFlags) or a go tool flag on the goToolFlags list, and every -name
// written after cosmoflow-<cmd> in a backticked span of a Markdown file
// must be a flag that command registers (see commandSpanFlags). The two daemons'
// route comments and the api package's route list are scanned with the
// docs.
// CHANGES.md and ROADMAP.md are history and are not scanned, nor
// is benchmark/, whose files change only with the benchmark itself.
func TestDocsNameOnlyExistingCommands(t *testing.T) {
	files := []string{"DESIGN.md", "EXPERIMENTS.md", "doc.go", "Makefile", ".claude/skills/verify/SKILL.md",
		"cmd/cosmoflow-serve/main.go", "cmd/cosmoflow-gateway/main.go", "internal/serve/api/api.go"}
	err := filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Name() == "README.md" {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileTgt.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	routes := muxRoutes(t, "internal/serve/server.go", "internal/gateway/gateway.go")
	literals := stringLiterals(t, "internal/serve", "internal/gateway")
	cmds := cmdFlags(t)
	flags := map[string]bool{}
	for _, names := range cmds {
		for name := range names {
			flags[name] = true
		}
	}
	decls := map[string]map[string]map[string]bool{}
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasSuffix(path, ".md") {
			for _, f := range commandSpanFlags(string(text)) {
				if !cmds[f.cmd][f.flag] {
					t.Errorf("%s:%d: names flag -%s of cosmoflow-%s, which that command does not register",
						path, f.line, f.flag, f.cmd)
				}
			}
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range commandToken.FindAllStringSubmatch(line, -1) {
				if m[2] != "" {
					continue // a schema ID such as cosmoflow-stats/v2
				}
				if fi, err := os.Stat(filepath.Join("cmd", "cosmoflow-"+m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: names cosmoflow-%s, which is not a directory under cmd/", path, i+1, m[1])
				}
			}
			for _, m := range makeToken.FindAllStringSubmatch(line, -1) {
				if !targets[m[1]] {
					t.Errorf("%s:%d: names `make %s`, which is not a Makefile target", path, i+1, m[1])
				}
			}
			for _, m := range pathToken.FindAllStringSubmatch(line, -1) {
				p := strings.TrimRight(m[1], ".")
				if _, err := os.Stat(p); err != nil {
					t.Errorf("%s:%d: names %s, which does not exist", path, i+1, p)
				}
			}
			for _, m := range routeToken.FindAllStringSubmatch(line, -1) {
				if p := strings.TrimRight(m[1], ".:"); !routeRegistered(p, routes, literals) {
					t.Errorf("%s:%d: names route %s, which neither server serves", path, i+1, p)
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				if m := flagSpan.FindStringSubmatch(span); m != nil && strings.HasSuffix(path, ".md") &&
					!flags[m[1]] && !goToolFlags[m[1]] {
					t.Errorf("%s:%d: names flag -%s, which no cmd/*/main.go registers", path, i+1, m[1])
				}
				for _, m := range goRef.FindAllStringSubmatch(span, -1) {
					pkg, scope, name, ref := m[1], "", m[2], m[1]+"."+m[2]
					if m[3] != "" {
						scope, name, ref = m[2], m[3], ref+"."+m[3]
					}
					if _, ok := decls[pkg]; !ok {
						decls[pkg] = goDecls(t, pkgDir(pkg))
					}
					if decls[pkg] != nil && !decls[pkg][scope][name] {
						t.Errorf("%s:%d: names %s, which is not a declaration, method or field in %s",
							path, i+1, ref, pkgDir(pkg))
					}
				}
			}
		}
	}
}

// muxRoutes parses the given files and returns every string literal passed
// as the pattern of a HandleFunc or Handle call.
func muxRoutes(t *testing.T, files ...string) []string {
	t.Helper()
	var routes []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if ok && isLit && lit.Kind == token.STRING && (sel.Sel.Name == "HandleFunc" || sel.Sel.Name == "Handle") {
				if p, err := strconv.Unquote(lit.Value); err == nil {
					routes = append(routes, p)
				}
			}
			return true
		})
	}
	if len(routes) == 0 {
		t.Fatal("found no registered routes")
	}
	return routes
}

// spanFlag is a flag a doc writes after a command name in a code span.
type spanFlag struct {
	line      int
	cmd, flag string
}

// commandSpanFlags returns every -name that a backticked span of a
// Markdown text writes after cosmoflow-<cmd>, up to the next command name
// or shell separator, with the command and the flag's 1-based line. Spans
// are found per paragraph, so one may run across a line break.
func commandSpanFlags(text string) []spanFlag {
	var out []spanFlag
	off := 0
	for _, para := range strings.SplitAfter(text, "\n\n") {
		for _, span := range codeSpan.FindAllStringIndex(para, -1) {
			s := para[span[0]:span[1]]
			names := commandToken.FindAllStringSubmatchIndex(s, -1)
			for i, m := range names {
				if m[4] >= 0 {
					continue // a schema ID such as cosmoflow-stats/v2
				}
				end := len(s)
				if i+1 < len(names) {
					end = names[i+1][0]
				}
				args := s[m[1]:end]
				if sep := shellSep.FindStringIndex(args); sep != nil {
					args = args[:sep[0]]
				}
				for _, f := range argFlag.FindAllStringSubmatchIndex(args, -1) {
					pos := off + span[0] + m[1] + f[2]
					out = append(out, spanFlag{
						line: strings.Count(text[:pos], "\n") + 1,
						cmd:  s[m[2]:m[3]],
						flag: args[f[2]:f[3]],
					})
				}
			}
		}
		off += len(para)
	}
	return out
}

// flagFuncs are the flag package's functions (and a FlagSet's methods)
// the commands register flags through; each takes the flag's name as its
// first argument.
var flagFuncs = map[string]bool{
	"Bool": true, "Duration": true, "Float64": true, "Func": true,
	"Int": true, "Int64": true, "String": true,
}

// cmdFlags parses every cmd/*/main.go and returns, keyed by command name
// (train for cosmoflow-train), the names of the flags it registers through
// the flag package's functions, such as flag.Int("retries", ...), or
// through a FlagSet it makes with flag.NewFlagSet.
func cmdFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("cmd", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]map[string]bool{}
	total := 0
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		flags := map[string]bool{}
		sets := map[string]bool{"flag": true} // receivers that register flags
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && isFlagCall(as.Rhs[0], "NewFlagSet") {
					sets[id.Name] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			if !ok || !sets[recv.Name] || !flagFuncs[sel.Sel.Name] {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					flags[name] = true
				}
			}
			return true
		})
		cmds[strings.TrimPrefix(filepath.Base(filepath.Dir(path)), "cosmoflow-")] = flags
		total += len(flags)
	}
	if total == 0 {
		t.Fatal("found no registered flags")
	}
	return cmds
}

// isFlagCall reports whether e calls the flag package's function fn.
func isFlagCall(e ast.Expr, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "flag"
}

// routeRegistered reports whether a documented path is served by a
// registered pattern: equal to it, or under a subtree pattern ending in
// "/" with every segment past the pattern resolved by a handler. A
// segment resolves as a {placeholder}, whose :verb suffix (as in
// {name}:predict) must be a string literal of the handlers, or as a
// string literal itself, "seg" or "seg/" — so a route whose handler is
// gone stops resolving even though its subtree pattern stays. The
// catch-all "/" answers every path with 404 and so names no route.
func routeRegistered(path string, routes []string, literals map[string]bool) bool {
	for _, r := range routes {
		if r == "/" {
			continue
		}
		if path == r || strings.HasSuffix(r, "/") && strings.HasPrefix(path, r) &&
			segmentsResolve(strings.TrimPrefix(path, r), literals) {
			return true
		}
	}
	return false
}

// segmentsResolve reports whether every segment of rest is a {placeholder}
// with a literal :verb suffix or none, or a literal "seg" or "seg/".
func segmentsResolve(rest string, literals map[string]bool) bool {
	for _, seg := range strings.Split(rest, "/") {
		if m := placeholder.FindStringSubmatch(seg); m != nil {
			if m[1] != "" && !literals[m[1]] {
				return false
			}
		} else if seg == "" || !literals[seg] && !literals[seg+"/"] {
			return false
		}
	}
	return true
}

// placeholder matches a {name} path segment and captures its :verb suffix.
var placeholder = regexp.MustCompile(`^\{\w+\}(:\w+)?$`)

// stringLiterals returns every string literal in the non-test Go files of
// the given package directories: the segment and verb names their
// handlers match on.
func stringLiterals(t *testing.T, dirs ...string) map[string]bool {
	t.Helper()
	lits := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						lits[v] = true
					}
				}
				return true
			})
		}
	}
	return lits
}

// pkgDir maps a package name to its directory; the serving API's wire,
// api and client packages live under internal/serve.
func pkgDir(pkg string) string {
	switch pkg {
	case "wire", "api", "client":
		return filepath.Join("internal", "serve", pkg)
	}
	return filepath.Join("internal", pkg)
}

// goDecls parses dir's non-test Go files and returns what a doc may name
// in it: under "" every package-level declaration and method, under each
// type name its fields and methods. It returns nil when dir does not
// exist, for names of packages outside the repo such as time.Now.
func goDecls(t *testing.T, dir string) map[string]map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	members := map[string]map[string]bool{}
	add := func(scope, name string) {
		if members[scope] == nil {
			members[scope] = map[string]bool{}
		}
		members[scope][name] = true
	}
	addFields := func(scope string, fields *ast.FieldList) {
		for _, f := range fields.List {
			if len(f.Names) == 0 {
				add(scope, typeName(f.Type)) // embedded
			}
			for _, n := range f.Names {
				add(scope, n.Name)
			}
		}
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add("", d.Name.Name)
				if d.Recv != nil {
					add(typeName(d.Recv.List[0].Type), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add("", spec.Name.Name)
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							addFields(spec.Name.Name, ty.Fields)
						case *ast.InterfaceType:
							addFields(spec.Name.Name, ty.Methods)
						}
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							add("", n.Name)
						}
					}
				}
			}
		}
	}
	return members
}

// typeName returns the bare name of a receiver or embedded type: T for T,
// *T, T[P] and pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}
