// Command linkmap lists the functions of this module that no main links.
//
// It builds every main package of the module and of the modules nested one
// directory below it (bench) with inlining off, reads each binary's text
// symbols with `go tool nm`, and prints every non-test function declared
// under repro/ that none of them contains, with its line count and a total.
// Closures, method values and go/defer wrappers count for the function that
// encloses them. Run it from the module root:
//
//	go run ./internal/tools/linkmap           # list and total
//	go run ./internal/tools/linkmap -max 500  # also exit 1 if total > 500
//	go run ./internal/tools/linkmap -dump     # each main's repro/ symbols
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type fn struct {
	file        string
	line, lines int
}

func main() {
	dump := flag.Bool("dump", false, "print each main's linked repro/ text symbols instead of the report")
	limit := flag.Int("max", -1, "exit 1 if more than this many lines are linked nowhere (-1: no limit)")
	flag.Parse()
	tmp, err := os.MkdirTemp("", "linkmap")
	check(err)
	defer os.RemoveAll(tmp)

	nested, err := filepath.Glob("*/go.mod")
	check(err)
	declared, linked := map[string]fn{}, map[string]bool{}
	fset := token.NewFileSet()
	for _, mod := range append([]string{"go.mod"}, nested...) {
		mod = filepath.Dir(mod)
		dec := json.NewDecoder(bytes.NewReader(run(mod, "go", "list", "-json", "./...")))
		for dec.More() {
			var p struct {
				Dir, ImportPath, Name string
				GoFiles               []string
			}
			check(dec.Decode(&p))
			for _, name := range p.GoFiles {
				declare(fset, p.ImportPath, filepath.Join(p.Dir, name), declared)
			}
			if p.Name != "main" {
				continue
			}
			bin := filepath.Join(tmp, strings.ReplaceAll(p.ImportPath, "/", "_"))
			run(mod, "go", "build", "-gcflags=all=-l", "-o", bin, p.ImportPath)
			for _, line := range strings.Split(string(run(mod, "go", "tool", "nm", bin)), "\n") {
				// "addr T name": the name is everything after the second
				// field, since generic shape names contain spaces.
				f := strings.SplitN(strings.TrimSpace(line), " ", 3)
				if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
					continue
				}
				sym := f[2]
				if rest, ok := strings.CutPrefix(sym, "main."); ok {
					sym = p.ImportPath + "." + rest
				}
				if !strings.HasPrefix(sym, "repro/") {
					continue
				}
				if *dump {
					fmt.Printf("%s\t%s\n", p.ImportPath, sym)
				}
				// Mark pkg.F and pkg.T.M: F.func1 is F's closure, and a
				// function and a type never share a name.
				s := strip(strings.TrimSuffix(sym, "-fm"))
				slash := strings.LastIndex(s, "/")
				parts := strings.SplitN(s[slash+1:], ".", 4)
				for i := 2; i <= len(parts) && i <= 3; i++ {
					linked[s[:slash+1]+strings.Join(parts[:i], ".")] = true
				}
			}
		}
	}
	if *dump {
		return
	}
	var dead []string
	total := 0
	for k, f := range declared {
		if !linked[k] {
			dead = append(dead, k)
			total += f.lines
		}
	}
	sort.Strings(dead)
	wd, err := os.Getwd()
	check(err)
	for _, k := range dead {
		f := declared[k]
		rel, err := filepath.Rel(wd, f.file)
		check(err)
		fmt.Printf("%5d  %s  %s:%d\n", f.lines, k, rel, f.line)
	}
	fmt.Printf("total: %d lines in %d functions linked nowhere\n", total, len(dead))
	if *limit >= 0 && total > *limit {
		fmt.Fprintf(os.Stderr, "linkmap: %d lines linked nowhere, limit %d\n", total, *limit)
		os.Exit(1)
	}
}

// declare records each function of file under its key, pkg.F or pkg.T.M.
func declare(fset *token.FileSet, pkg, file string, declared map[string]fn) {
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	check(err)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name == "_" {
			continue
		}
		k := pkg + "."
		if fd.Recv != nil {
			k += strip(types.ExprString(fd.Recv.List[0].Type)) + "."
		}
		start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
		declared[k+fd.Name.Name] = fn{file, start.Line, end.Line - start.Line + 1}
	}
}

// strip drops type arguments, parentheses and pointer stars, so that both
// repro/detect.(*ring[go.shape.int]).push and the receiver *ring[T] read
// as ring.
func strip(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0 && r != '(' && r != ')' && r != '*':
			b.WriteRune(r)
		}
	}
	return b.String()
}

func run(dir, name string, args ...string) []byte {
	cmd := exec.Command(name, args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	check(err)
	return out
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkmap:", err)
		os.Exit(1)
	}
}
