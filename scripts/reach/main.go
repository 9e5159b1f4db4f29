// Command reach lists the function declarations of this module that no
// binary links, and fails when one of them is not on its allowlist.
//
// It builds every main package with inlining off and the linker's edge
// dump (-gcflags=all=-l -ldflags=-dumpdep), once for GOARCH=amd64 and once
// for GOARCH=arm64, so code built for only one of the two still counts.
// It parses every non-test .go file outside testdata and nested modules.
// A declaration is reached when its symbol, or a generic instance of it,
// appears in some binary's dump. A symbol that only holds a function's
// data, such as F.arginfo1, does not mark F: the linker deduplicates those
// by content, so the name may be another function's. main.* symbols are
// keyed by the binary's import path, so one command's helper never marks
// another's.
//
// Each unreached declaration is printed as "file:line symbol". The run
// exits 1 when an unreached declaration is missing from allowlist.txt, or
// when an allowlist entry is stale: its symbol is reached or no longer
// declared.
//
// allowlist.txt holds one "symbol reason" line per entry; # starts a
// comment. The reasons are:
//
//	api       an exported root-package name that README.md or docs/API.md
//	          documents. A generated main, added with -overlay so nothing is
//	          written to the tree, links every api entry, so what they call
//	          counts as reached.
//	test-ref  a reference or fixture that tests in two or more packages use
//
// Usage, from anywhere inside the module:
//
//	go run ./scripts/reach
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

var arches = []string{"amd64", "arm64"}

var reasons = map[string]bool{"api": true, "test-ref": true}

// apiDir is where the generated api main appears to live. It exists only
// in the build's overlay.
const apiDir = "scripts/reach/api"

// decl is one function declaration.
type decl struct {
	pos   string // file:line, the file relative to the module root
	sym   string // importpath.F, importpath.(*T).M or importpath.T.M
	lines int
}

func main() {
	if err := run(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(stdout, stderr io.Writer) error {
	root, mod, err := module()
	if err != nil {
		return err
	}
	decls, err := declarations(root, mod)
	if err != nil {
		return err
	}
	f, err := os.Open(filepath.Join(root, "scripts/reach/allowlist.txt"))
	if err != nil {
		return err
	}
	allow, err := readAllowlist(f)
	f.Close()
	if err != nil {
		return err
	}
	pkgs, err := goCmd(root, "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return err
	}
	linked, api := map[string]bool{}, map[string]bool{}
	for _, arch := range arches {
		if err := link(root, mod, arch, strings.Fields(string(pkgs)), apiMain(mod, allow), linked, api); err != nil {
			return err
		}
	}
	unreached, problems := check(decls, linked, api, allow)
	lines := 0
	for _, d := range unreached {
		fmt.Fprintf(stdout, "%s %s\n", d.pos, d.sym)
		lines += d.lines
	}
	fmt.Fprintf(stderr, "reach: %d of %d declarations unreached (%d lines), %d allowlisted\n",
		len(unreached), len(decls), lines, len(allow))
	for _, p := range problems {
		fmt.Fprintln(stderr, "reach:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problems; delete the code, move it into the _test.go file of its one user, or allowlist it with a reason", len(problems))
	}
	return nil
}

// module returns the main module's directory and path.
func module() (root, mod string, err error) {
	out, err := goCmd("", "list", "-m", "-f", "{{.Dir}}\n{{.Path}}")
	if err != nil {
		return "", "", err
	}
	f := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(f) != 2 {
		return "", "", fmt.Errorf("go list -m: unexpected output %q", out)
	}
	return f[0], f[1], nil
}

func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return out, nil
}

// link builds pkgs and the api main for arch and reads the linker's edge
// dump: the api main's symbols go to api, every other binary's to linked.
func link(root, mod, arch string, pkgs []string, apiSrc []byte, linked, api map[string]bool) error {
	tmp, err := os.MkdirTemp("", "reach")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	src := filepath.Join(tmp, "main.go")
	overlay := filepath.Join(tmp, "overlay.json")
	if err := os.WriteFile(src, apiSrc, 0o644); err != nil {
		return err
	}
	replace := fmt.Sprintf(`{"Replace":{%q:%q}}`, filepath.Join(root, apiDir, "main.go"), src)
	if err := os.WriteFile(overlay, []byte(replace), 0o644); err != nil {
		return err
	}
	args := append([]string{"build", "-overlay", overlay, "-o", tmp + string(filepath.Separator),
		"-gcflags=all=-l", "-ldflags=-dumpdep", "./" + apiDir}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput() // the link's dump goes to stderr
	if err != nil {
		var msg strings.Builder
		for _, line := range strings.SplitAfter(string(out), "\n") {
			if !strings.Contains(line, " -> ") {
				msg.WriteString(line)
			}
		}
		return fmt.Errorf("go build (GOARCH=%s): %v\n%s", arch, err, msg.String())
	}
	return parseDumpdep(bytes.NewReader(out), mod, path.Join(mod, apiDir), linked, api)
}

// apiMain returns the source of a main package that links every api entry.
func apiMain(mod string, allow map[string]string) []byte {
	var roots []string
	for sym, reason := range allow {
		if reason == "api" {
			roots = append(roots, sym)
		}
	}
	sort.Strings(roots)
	var b strings.Builder
	b.WriteString("package main\n\n")
	if len(roots) > 0 {
		fmt.Fprintf(&b, "import %q\n\n", mod)
	}
	b.WriteString("var keep = []any{\n")
	pkg := path.Base(mod)
	for _, sym := range roots {
		// mcf0.(*T).M is the method expression (*mcf0.T).M.
		rest := strings.TrimPrefix(sym, mod+".")
		if r, ok := strings.CutPrefix(rest, "(*"); ok {
			fmt.Fprintf(&b, "\t(*%s.%s,\n", pkg, r)
		} else {
			fmt.Fprintf(&b, "\t%s.%s,\n", pkg, rest)
		}
	}
	b.WriteString("}\n\nfunc main() { println(len(keep)) }\n")
	return []byte(b.String())
}

// parseDumpdep reads the output of go build -ldflags=-dumpdep over several
// main packages, where each link's edges follow a "# importpath" header.
// Every module symbol on either side of an edge is linked; the binary
// apiPkg fills api, every other binary fills linked. Inlining is off, so a
// closure's enclosing function is always linked beside it.
func parseDumpdep(r io.Reader, mod, apiPkg string, linked, api map[string]bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	bin, into := "", linked
	for sc.Scan() {
		line := sc.Text()
		if p, ok := strings.CutPrefix(line, "# "); ok {
			bin, into = p, linked
			if p == apiPkg {
				into = api
			}
			continue
		}
		from, to, ok := strings.Cut(line, " -> ")
		if !ok || bin == "" {
			continue
		}
		for _, s := range [2]string{from, to} {
			if sym, ok := symbol(s, mod, bin); ok {
				into[sym] = true
			}
		}
	}
	return sc.Err()
}

// symbol turns a dumpdep symbol of the module into a declaration's key. It
// drops generic shape arguments ("[go.shape.int]") and attribute suffixes
// (" <ABIInternal>"), and qualifies main.* by the binary's import path. It
// reports false for symbols outside the module.
func symbol(s, mod, bin string) (string, bool) {
	if rest, ok := strings.CutPrefix(s, "main."); ok {
		s = bin + "." + rest
	} else if !strings.HasPrefix(s, mod+".") && !strings.HasPrefix(s, mod+"/") {
		return "", false
	}
	var b strings.Builder
	depth := 0
	for _, c := range s {
		switch {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteRune(c)
		}
	}
	s = b.String()
	if i := strings.Index(s, " <"); i >= 0 {
		s = s[:i]
	}
	return s, true
}

// declarations parses every non-test .go file under root, skipping
// testdata and dot directories and nested modules, and returns its
// function declarations other than init.
func declarations(root, mod string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		pkg := path.Join(mod, filepath.ToSlash(filepath.Dir(rel)))
		for _, fd := range f.Decls {
			fn, ok := fd.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" {
				continue
			}
			sym := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				sym = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
			decls = append(decls, decl{
				pos:   fmt.Sprintf("%s:%d", filepath.ToSlash(rel), start.Line),
				sym:   sym,
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	return decls, err
}

// recvName renders a receiver type as the linker does: T or (*T), without
// type parameters.
func recvName(e ast.Expr) string {
	star, ok := e.(*ast.StarExpr)
	if ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if ok {
		return "(*" + name + ")"
	}
	return name
}

// readAllowlist reads "symbol reason" lines; blank lines and #-comments
// are skipped.
func readAllowlist(r io.Reader) (map[string]string, error) {
	allow := map[string]string{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line, _, _ := strings.Cut(sc.Text(), "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 || !reasons[f[1]] {
			return nil, fmt.Errorf("allowlist line %d: want \"symbol api|test-ref\", got %q", n, sc.Text())
		}
		if _, dup := allow[f[0]]; dup {
			return nil, fmt.Errorf("allowlist line %d: %s listed twice", n, f[0])
		}
		allow[f[0]] = f[1]
	}
	return allow, sc.Err()
}

// check returns the unreached declarations in walk order, and one problem
// per unreached declaration missing from allow and per stale entry. A
// declaration is reached when a binary links it, or when the api main
// links it and it is not itself an api entry.
func check(decls []decl, linked, api map[string]bool, allow map[string]string) (unreached []decl, problems []string) {
	reached := func(sym string) bool { return linked[sym] || api[sym] && allow[sym] != "api" }
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		if reached(d.sym) {
			continue
		}
		unreached = append(unreached, d)
		if allow[d.sym] == "" {
			problems = append(problems, fmt.Sprintf("%s %s: unreached and not allowlisted", d.pos, d.sym))
		}
	}
	var stale []string
	for sym := range allow {
		switch {
		case !declared[sym]:
			stale = append(stale, sym+": stale allowlist entry, no longer declared")
		case reached(sym):
			stale = append(stale, sym+": stale allowlist entry, reached")
		}
	}
	sort.Strings(stale)
	return unreached, append(problems, stale...)
}
