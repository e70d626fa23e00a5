// Command pdrvet runs the project's static-analysis suite (internal/lint)
// over the module: stdlib-only analyzers that enforce the PDR engine's
// conventions the compiler cannot check. See docs/LINT.md.
//
// Usage:
//
//	pdrvet [-only floateq,poollife] [-json] [-list] [-root dir] [patterns]
//
// Patterns are module-relative ("./...", "./internal/geom", or full import
// paths like "pdr/internal/service"); with none, or with "./...", the whole
// module is analyzed. -json switches the diagnostic stream to one JSON
// object per line for machine consumption. Exits 1 when findings remain
// after lint:ignore suppression, 2 on load/usage errors. Load errors are
// tolerant: a package that fails to parse or type-check is reported on
// stderr, the remaining packages are still analyzed and their findings
// printed, and the exit status is 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pdr/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with the process edges (args, stdio, exit status) made
// testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdrvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		only     = fs.String("only", "", "comma-separated analyzer subset to run")
		list     = fs.Bool("list", false, "list analyzers and exit")
		asJSON   = fs.Bool("json", false, "emit diagnostics as one JSON object per line")
		rootFlag = fs.String("root", ".", "module root (directory containing go.mod)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, "pdrvet:", err)
			return 2
		}
	}

	mod, err := lint.LoadModule(*rootFlag)
	if err != nil {
		fmt.Fprintln(stderr, "pdrvet:", err)
		return 2
	}
	pkgs, loadErrs := load(mod, fs.Args())
	for _, e := range loadErrs {
		fmt.Fprintln(stderr, "pdrvet:", e)
	}
	if len(pkgs) == 0 && len(loadErrs) > 0 {
		return 2
	}

	diags := lint.Run(pkgs, analyzers)
	if *asJSON {
		if err := lint.WriteJSON(stdout, diags); err != nil {
			fmt.Fprintln(stderr, "pdrvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(stderr, "pdrvet: %d finding(s)\n", n)
	}
	switch {
	case len(loadErrs) > 0:
		return 2
	case len(diags) > 0:
		return 1
	}
	return 0
}

// load resolves command-line patterns to packages. "./..." (or no
// patterns) loads the whole module; "dir/..." loads the subtree; other
// patterns load a single package by module-relative path or import path.
// Packages that fail to load surface as errors without suppressing the
// rest.
func load(mod *lint.Module, patterns []string) ([]*lint.Package, []error) {
	all, errs := mod.LoadAll()
	if len(patterns) == 0 {
		return all, errs
	}
	var out []*lint.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, pkg := range all {
			if matchPattern(mod, pat, pkg.Path) {
				matched = true
				if !seen[pkg.Path] {
					seen[pkg.Path] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			errs = append(errs, fmt.Errorf("pattern %q matched no packages", pat))
		}
	}
	return out, errs
}

func matchPattern(mod *lint.Module, pat, pkgPath string) bool {
	pat = strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/")
	if pat == "" || pat == "." {
		pat = "..."
	}
	// Normalize module-relative patterns to import paths.
	if !strings.HasPrefix(pat, mod.Path) {
		if pat == "..." {
			pat = mod.Path + "/..."
		} else {
			pat = mod.Path + "/" + pat
		}
	}
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		return pkgPath == rest || strings.HasPrefix(pkgPath, rest+"/")
	}
	return pkgPath == pat
}
