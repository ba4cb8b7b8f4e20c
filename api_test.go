package cltj

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// apiGolden is the module's exported surface, one item per line.
const apiGolden = "testdata/api.golden"

var update = flag.Bool("update", false, "rewrite golden files")

// TestAPISurfaceGolden diffs the module's exported surface against
// testdata/api.golden; `go test -run APISurface -update .` rewrites it.
// The surface is read from the source with go/parser:
//
//   - every exported identifier of every non-main package (consts,
//     vars, funcs, types, and the methods and struct fields of exported
//     types, interface methods included), with its signature or type;
//   - every flag a command registers, with its type and default;
//   - every JSON field of a struct type, with the Go field behind it;
//   - every environment variable the non-test code reads.
//
// Nested modules (benchmark/), testdata and test files are not part of
// the surface. The header gives each part's total; "exported names"
// counts the first part's lines but its interface methods, which the
// header counts apart.
//
// A type alias makes the methods of the type it names part of its
// package's surface, so each is listed under the alias's package too.
//
// A func, method or type of an internal/ package that no non-test file
// of the module, nested modules included, references outside its own
// declaration ends in " # tests only": code that only tests call
// belongs beside them, so a new one shows as a diff to review.
func TestAPISurfaceGolden(t *testing.T) {
	got := apiSurface(t)
	if *update {
		if err := os.MkdirAll(filepath.Dir(apiGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("%v (run `go test -run APISurface -update .` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exported surface differs from %s (review, then `go test -run APISurface -update .`):\n%s",
			apiGolden, lineDiff(string(want), string(got)))
	}
}

// TestTestsOnlyMarker pins what counts as a reference: a declaration's
// own name, its recursion and its methods' receivers do not; a bare or
// qualified use, a selected method name and a type named in another
// declaration do. The root package, the methods it aliases and Unwrap
// are never marked.
func TestTestsOnlyMarker(t *testing.T) {
	s := surface{fset: token.NewFileSet(), names: map[string]string{}, refs: map[string]bool{}, members: map[string][]string{}}
	files := []struct{ pkg, src string }{
		{"repro/internal/lib", `package lib
type Used struct{ next *Used }
type Alone struct{ next *Alone }
func (a *Alone) Walk() { a.Walk() }
func (u Used) Called() {}
func Rec(n int) int { return Rec(n - 1) }
func Helper() {}
func NewUsed() *Used { Helper(); return nil }
type E struct{}
func (E) Unwrap() error { return nil }`},
		{"repro", `package cltj
import "repro/internal/lib"
type Lonely = lib.Alone
func Public() {}`},
		{"repro/cmd/x", `package main
import l "repro/internal/lib"
func main() { l.NewUsed().Called() }`},
	}
	for _, f := range files {
		file, err := parser.ParseFile(s.fset, "x.go", f.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		s.refsOf(f.pkg, file)
		if file.Name.Name != "main" {
			s.decls(f.pkg, file)
		}
	}
	lines := s.nameLines()
	var marked []string
	for l := range lines {
		if strings.HasSuffix(l, " # tests only") {
			marked = append(marked, l)
		}
	}
	sort.Strings(marked)
	want := []string{
		"repro/internal/lib: func Rec(n int) int # tests only",
		"repro/internal/lib: method (*Alone) Walk() # tests only",
		"repro/internal/lib: type E struct # tests only",
	}
	if !reflect.DeepEqual(marked, want) {
		t.Errorf("marked:\n%s\nwant:\n%s", strings.Join(marked, "\n"), strings.Join(want, "\n"))
	}
	if !lines["repro: method (*Lonely) Walk()"] {
		t.Error("the root alias of lib.Alone does not list its method Walk")
	}
}

// surface collects the golden's four parts as sets of lines.
type surface struct {
	fset              *token.FileSet
	flags, json, envs map[string]bool
	// names maps each exported-name line to the refs key of its
	// identifier: "path.Name" for a func or type, ".Name" for a method,
	// "" for a line that is never marked.
	names map[string]string
	// refs holds the keys that non-test code references.
	refs map[string]bool
	// members maps "path.Type" to its method lines, and aliases lists
	// the surface's type aliases, whose lines nameLines adds.
	members map[string][]string
	aliases []alias
}

// alias is a type alias on the surface: pkg's type name names the type
// typ of package target.
type alias struct{ pkg, name, target, typ string }

// apiSurface renders the surface of the module rooted at the working
// directory.
func apiSurface(t *testing.T) []byte {
	t.Helper()
	s := surface{
		fset:  token.NewFileSet(),
		names: map[string]string{},
		flags: map[string]bool{},
		json:  map[string]bool{},
		envs:  map[string]bool{},
		refs:  map[string]bool{},

		members: map[string][]string{},
	}
	nested := "" // the nested module being walked, whose code only counts as references
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." {
			base := d.Name()
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
			if nested != "" && !strings.HasPrefix(p, nested+string(filepath.Separator)) {
				nested = ""
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				nested = p
			}
		}
		return s.dir(p, nested == "")
	})
	if err != nil {
		t.Fatal(err)
	}
	names := s.nameLines()
	iface := 0
	for l := range names {
		if _, decl, _ := strings.Cut(l, ": "); strings.HasPrefix(decl, "method ") && !strings.HasPrefix(decl, "method (") {
			iface++
		}
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "# Exported surface of module repro, read from the source by TestAPISurfaceGolden.\n")
	fmt.Fprintf(&b, "# exported names (non-main packages, methods and struct fields of exported types): %d\n", len(names)-iface)
	fmt.Fprintf(&b, "# interface methods of exported types (not in the names above): %d\n", iface)
	fmt.Fprintf(&b, "# command flags: %d\n", len(s.flags))
	fmt.Fprintf(&b, "# JSON fields: %d\n", len(s.json))
	fmt.Fprintf(&b, "# environment variables read: %d\n", len(s.envs))
	for _, part := range []map[string]bool{names, s.flags, s.json, s.envs} {
		lines := make([]string, 0, len(part))
		for l := range part {
			lines = append(lines, l)
		}
		sort.Strings(lines)
		b.WriteString("\n")
		for _, l := range lines {
			b.WriteString(l + "\n")
		}
	}
	return b.Bytes()
}

// nameLines is the exported-name part, each line whose identifier only
// tests reference marked, and the method lines of every aliased type
// repeated under the alias, never marked.
func (s *surface) nameLines() map[string]bool {
	lines := make(map[string]bool, len(s.names))
	for l, key := range s.names {
		if key != "" && !s.refs[key] {
			l += " # tests only"
		}
		lines[l] = true
	}
	for _, a := range s.aliases {
		for _, m := range s.members[a.target+"."+a.typ] {
			// The type's first mention in a method line is its receiver.
			lines[a.pkg+": "+strings.Replace(m, a.typ, a.name, 1)] = true
		}
	}
	return lines
}

// dir adds one directory's package, to the surface only when onSurface.
// Files under mutually exclusive build constraints declare the same
// names, which the sets merge.
func (s *surface) dir(dir string, onSurface bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(dir))
		s.refsOf(pkg, f)
		if !onSurface {
			continue
		}
		if f.Name.Name == "main" {
			s.flagsOf(path.Base(pkg), f)
		} else {
			s.decls(pkg, f)
		}
		s.jsonOf(pkg, f)
		s.envsOf(f)
	}
	return nil
}

// expr prints a node on one line.
func (s *surface) expr(n ast.Node) string {
	var b bytes.Buffer
	printer.Fprint(&b, s.fset, n)
	return strings.Join(strings.Fields(b.String()), " ")
}

// decls adds a non-main file's exported declarations.
func (s *surface) decls(pkg string, f *ast.File) {
	// marked is the refs key of a func, method or type line that the
	// golden marks when only tests reference it. The root package is the
	// library's public surface, there for callers outside the module, and
	// Unwrap is called by package errors, which no source file shows.
	marked := func(key, name string) string {
		if !strings.HasPrefix(pkg, "repro/internal/") || name == "Unwrap" {
			return ""
		}
		return key
	}
	add := func(key, format string, args ...any) { s.names[pkg+": "+fmt.Sprintf(format, args...)] = key }
	imports := importsOf(f)
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			sig := strings.TrimPrefix(s.expr(d.Type), "func")
			if d.Recv == nil {
				add(marked(pkg+"."+d.Name.Name, d.Name.Name), "func %s%s", d.Name.Name, sig)
				continue
			}
			recv := d.Recv.List[0].Type
			if typ := recvName(recv); typ.IsExported() {
				line := fmt.Sprintf("method (%s) %s%s", s.expr(recv), d.Name.Name, sig)
				add(marked("."+d.Name.Name, d.Name.Name), "%s", line)
				s.members[pkg+"."+typ.Name] = append(s.members[pkg+"."+typ.Name], line)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range sp.Names {
						if !n.IsExported() {
							continue
						}
						if sp.Type != nil {
							add("", "%s %s %s", d.Tok, n.Name, s.expr(sp.Type))
						} else {
							add("", "%s %s", d.Tok, n.Name)
						}
					}
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					s.typeSpec(pkg, sp, marked(pkg+"."+sp.Name.Name, sp.Name.Name), add)
					if sp.Assign.IsValid() {
						s.alias(pkg, sp.Name.Name, imports, sp.Type)
					}
				}
			}
		}
	}
}

// alias records the type alias name = e of package pkg when e names a
// type of a package the file imports.
func (s *surface) alias(pkg, name string, imports map[string]string, e ast.Expr) {
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ix.X
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
			s.aliases = append(s.aliases, alias{pkg, name, imports[id.Name], sel.Sel.Name})
		}
	}
}

// typeSpec adds an exported type of package pkg, whose line has the
// refs key given, and its exported fields or interface methods.
func (s *surface) typeSpec(pkg string, sp *ast.TypeSpec, key string, add func(string, string, ...any)) {
	name := sp.Name.Name
	if sp.TypeParams != nil {
		name += s.expr(sp.TypeParams)
	}
	switch ty := sp.Type.(type) {
	case *ast.StructType:
		add(key, "type %s struct", name)
		for _, fl := range ty.Fields.List {
			for _, n := range fieldNames(fl) {
				if n.IsExported() {
					add("", "field %s.%s %s", sp.Name.Name, n.Name, s.expr(fl.Type))
				}
			}
		}
	case *ast.InterfaceType:
		add(key, "type %s interface", name)
		for _, m := range ty.Methods.List {
			for _, n := range fieldNames(m) {
				if n.IsExported() {
					line := fmt.Sprintf("method %s.%s%s", sp.Name.Name, n.Name, strings.TrimPrefix(s.expr(m.Type), "func"))
					add("", "%s", line)
					s.members[pkg+"."+sp.Name.Name] = append(s.members[pkg+"."+sp.Name.Name], line)
				}
			}
		}
	default:
		if sp.Assign.IsValid() {
			add(key, "type %s = %s", name, s.expr(sp.Type))
		} else {
			add(key, "type %s %s", name, s.expr(sp.Type))
		}
	}
}

// refsOf adds the references a non-test file of package pkg makes: a
// package-level name as "path.Name", whether qualified by an import or
// bare within its own package, and any other selected name (a method or
// field, whose receiver's type the parser does not resolve) as ".Name".
// A declaration's names, a method's receiver, and references a
// declaration makes to itself (recursion, a type's own fields, a
// method's receiver type) do not count.
func (s *surface) refsOf(pkg string, f *ast.File) {
	imports := importsOf(f)
	var self, recv, method string // the declaration being read
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if p, ok := imports[id.Name]; ok {
					s.refs[p+"."+x.Sel.Name] = true
					return false
				}
				if id.Name == recv && x.Sel.Name == method {
					return false
				}
			}
			s.refs["."+x.Sel.Name] = true
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			if key := pkg + "." + x.Name; key != self {
				s.refs[key] = true
			}
		}
		return true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			self, recv, method = pkg+"."+d.Name.Name, "", ""
			if d.Recv != nil {
				self, method = "", d.Name.Name
				if id := recvName(d.Recv.List[0].Type); id != nil {
					self = pkg + "." + id.Name
				}
				if names := d.Recv.List[0].Names; len(names) > 0 {
					recv = names[0].Name
				}
			}
			ast.Inspect(d.Type, visit)
			if d.Body != nil {
				ast.Inspect(d.Body, visit)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				self, recv, method = "", "", ""
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					self = pkg + "." + sp.Name.Name
					if sp.TypeParams != nil {
						ast.Inspect(sp.TypeParams, visit)
					}
					ast.Inspect(sp.Type, visit)
				case *ast.ValueSpec:
					if sp.Type != nil {
						ast.Inspect(sp.Type, visit)
					}
					for _, v := range sp.Values {
						ast.Inspect(v, visit)
					}
				}
			}
		}
	}
}

// importsOf maps the names a file imports packages under to their paths.
func importsOf(f *ast.File) map[string]string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	return imports
}

// fieldNames is a field's names, or its type's name when embedded.
func fieldNames(fl *ast.Field) []*ast.Ident {
	if len(fl.Names) > 0 {
		return fl.Names
	}
	if id := recvName(fl.Type); id != nil {
		return []*ast.Ident{id}
	}
	return nil
}

// recvName is the type name of a receiver or embedded field expression
// (*T, T[P], pkg.T); nil when there is none.
func recvName(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		default:
			return nil
		}
	}
}

// flagMethods maps a flag.FlagSet method to the position of its name
// argument.
var flagMethods = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// flagsOf adds the flags a command's file registers, on the flag
// package or on a FlagSet it creates.
func (s *surface) flagsOf(cmd string, f *ast.File) {
	sets := map[string]bool{"flag": true}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok && s.expr(call.Fun) == "flag.NewFlagSet" {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					sets[id.Name] = true
				}
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		at, known := flagMethods[sel.Sel.Name]
		if !ok || !known || !sets[recv.Name] || len(call.Args) <= at {
			return true
		}
		lit, ok := call.Args[at].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, _ := strconv.Unquote(lit.Value)
		kind := strings.TrimSuffix(sel.Sel.Name, "Var")
		if kind == "" || kind == "Text" {
			kind = "Value"
		}
		line := fmt.Sprintf("flag %s -%s %s", cmd, name, kind)
		if def := at + 1; len(call.Args) == def+2 && !strings.HasSuffix(kind, "Func") {
			line += " = " + s.expr(call.Args[def])
		}
		s.flags[line] = true
		return true
	})
}

// jsonOf adds the JSON-tagged fields of a file's named struct types,
// nested anonymous structs under a dotted path.
func (s *surface) jsonOf(pkg string, f *ast.File) {
	var walk func(owner string, st *ast.StructType)
	walk = func(owner string, st *ast.StructType) {
		for _, fl := range st.Fields.List {
			if fl.Tag == nil {
				continue
			}
			tag, _ := strconv.Unquote(fl.Tag.Value)
			key, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
			for _, n := range fieldNames(fl) {
				if key == "-" || (key == "" && !strings.Contains(tag, "json:")) {
					continue
				}
				k := key
				if k == "" {
					k = n.Name
				}
				s.json[fmt.Sprintf("json %s: %s.%s (%s)", pkg, owner, k, n.Name)] = true
				if inner, ok := fl.Type.(*ast.StructType); ok {
					walk(owner+"."+k, inner)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sp, ok := n.(*ast.TypeSpec); ok {
			if st, ok := sp.Type.(*ast.StructType); ok {
				walk(sp.Name.Name, st)
			}
		}
		return true
	})
}

// envsOf adds the environment variables a file reads by name.
func (s *surface) envsOf(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if fn := s.expr(call.Fun); fn == "os.Getenv" || fn == "os.LookupEnv" {
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				s.envs["env "+name] = true
			}
		}
		return true
	})
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
