// Package lint implements corrolint, a domain-aware static-analysis suite
// for this repository's numeric-determinism contract. PR 1's incremental
// ∆H engine is equivalence-tested to reproduce the reference implementation
// byte-for-byte, which makes the whole correctness story hostage to three
// classes of silent breakage: nondeterministic iteration feeding ordered
// output, floating-point edge cases (exact comparison, log/division
// blow-ups), and unsynchronized goroutine writes. Each analyzer targets one
// such class; see the per-analyzer files for the precise rules.
//
// The suite is stdlib-only (go/ast, go/parser, go/types); the driver lives
// in cmd/corrolint.
//
// # Suppression
//
// A finding can be silenced with an explanation:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed either on the line immediately above the offending line or as a
// trailing comment on the line itself. The reason is mandatory: a
// suppression without one is itself reported, and so is one that names an
// analyzer the suite does not have.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic produced by an analyzer.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the canonical file:line:col [name] message
// form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name is the identifier used in reports and //lint:ignore comments.
	Name string
	// Doc is a one-line description of the rule.
	Doc string
	// Interprocedural marks analyzers that consult the whole-program call
	// graph and summaries (Pass.Prog) rather than single-function syntax.
	Interprocedural bool
	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Pass hands one package to one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
	// Prog is the whole-program view (call graph + fixpoint summaries)
	// the interprocedural analyzers consult. Always non-nil: Run builds a
	// single-package program when no wider one is supplied.
	Prog *Program
	// Unit is the loaded package under analysis.
	Unit *Package

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type information is missing
// (e.g. the package had type errors); analyzers must tolerate nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// isFloat reports whether t is a floating-point basic type (after
// unwrapping named types).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgNameOf resolves an identifier used as a package qualifier to its
// import path ("" when id is not a package name).
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if info == nil {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// pkgCall matches a call of the form pkg.Fn(...) where pkg is an import of
// path; it returns the function name and true on match.
func pkgCall(info *types.Info, call *ast.CallExpr, path string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || pkgNameOf(info, id) != path {
		return "", false
	}
	return sel.Sel.Name, true
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		FloatExact,
		LogGuard,
		MapDet,
		HeapDet,
		GlobalRand,
		GoNoSync,
		CloseCheck,
		LoopDriver,
		DetFlow,
		CtxLoop,
		SharedMutate,
	}
}

// AnalyzerTable renders the suite as the markdown table embedded in the
// README between the analyzers markers; registry_table_test.go-style sync
// tests keep the two in lockstep.
func AnalyzerTable() string {
	var b strings.Builder
	b.WriteString("| analyzer | interprocedural | rule |\n")
	b.WriteString("|----------|-----------------|------|\n")
	for _, a := range Analyzers() {
		scope := "no"
		if a.Interprocedural {
			scope = "yes"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s |\n", a.Name, scope, a.Doc)
	}
	return b.String()
}

// AnalyzersByName resolves a comma-separated subset of analyzer names.
func AnalyzersByName(names string) ([]*Analyzer, error) {
	all := Analyzers()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run executes the analyzers over a loaded package, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position. The
// interprocedural analyzers see only this one package; use RunProgram to
// give them the full cross-package call graph.
func Run(pkg *Package, analyzers []*Analyzer) []Finding {
	return RunProgram(BuildProgram([]*Package{pkg}), pkg, analyzers)
}

// RunProgram executes the analyzers over one package of a whole-program
// view, applies //lint:ignore suppressions, and returns the surviving
// findings sorted by position.
func RunProgram(prog *Program, pkg *Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Info:     pkg.Info,
			Pkg:      pkg.Types,
			Prog:     prog,
			Unit:     pkg,
			analyzer: a,
			findings: &findings,
		}
		a.Run(pass)
	}
	findings = applySuppressions(pkg, findings)
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by position then analyzer name.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// DedupeFindings drops findings identical in analyzer, position, and
// message, preserving order. The two build-tag variants of one package
// (see Loader.LoadDir) report the shared files twice; this folds them.
func DedupeFindings(findings []Finding) []Finding {
	seen := make(map[Finding]bool, len(findings))
	kept := findings[:0]
	for _, f := range findings {
		if seen[f] {
			continue
		}
		seen[f] = true
		kept = append(kept, f)
	}
	return kept
}

// ignoreDirective is the parsed form of one //lint:ignore comment.
type ignoreDirective struct {
	analyzers []string
	reason    string
}

const ignorePrefix = "//lint:ignore"

// parseIgnore extracts the directive from a comment, reporting ok=false for
// unrelated comments and a nil directive with ok=true for malformed ones.
// The analyzer list is comma-separated; a sloppy "a, b" (space after the
// comma) still names both analyzers — the list keeps consuming tokens while
// it ends with a comma, and only then does the reason start.
func parseIgnore(text string) (*ignoreDirective, bool) {
	if !strings.HasPrefix(text, ignorePrefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
	var names []string
	for {
		fields := strings.SplitN(rest, " ", 2)
		for _, n := range strings.Split(fields[0], ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(fields) < 2 {
			rest = ""
			break
		}
		rest = strings.TrimSpace(fields[1])
		if !strings.HasSuffix(fields[0], ",") {
			break
		}
	}
	if len(names) == 0 || rest == "" {
		return nil, true
	}
	return &ignoreDirective{analyzers: names, reason: rest}, true
}

// applySuppressions removes findings covered by a well-formed
// //lint:ignore directive and appends a finding for each malformed one and
// for each name a directive gives that is neither "*" nor an analyzer of
// the full suite (even when this run enables a subset), so a misspelt or
// stale suppression is reported instead of silently doing nothing.
func applySuppressions(pkg *Package, findings []Finding) []Finding {
	known := map[string]bool{"*": true}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	// suppressed maps file -> line -> analyzer names silenced on that line.
	suppressed := make(map[string]map[int]map[string]bool)
	mark := func(pos token.Position, names []string) {
		file := suppressed[pos.Filename]
		if file == nil {
			file = make(map[int]map[string]bool)
			suppressed[pos.Filename] = file
		}
		line := file[pos.Line]
		if line == nil {
			line = make(map[string]bool)
			file[pos.Line] = line
		}
		for _, n := range names {
			line[strings.TrimSpace(n)] = true
		}
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				dir, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if dir == nil {
					findings = append(findings, Finding{
						Analyzer: "corrolint",
						Pos:      pos,
						Message:  "malformed //lint:ignore: want //lint:ignore <analyzer>[,<analyzer>...] <reason>",
					})
					continue
				}
				for _, n := range dir.analyzers {
					if !known[n] {
						findings = append(findings, Finding{
							Analyzer: "corrolint",
							Pos:      pos,
							Message:  fmt.Sprintf("//lint:ignore names unknown analyzer %q", n),
						})
					}
				}
				// A directive covers its own line (trailing-comment form)
				// and the line after the comment group it belongs to
				// (line-above form, robust to stacked directives).
				mark(pos, dir.analyzers)
				end := pkg.Fset.Position(cg.End())
				mark(token.Position{Filename: end.Filename, Line: end.Line + 1}, dir.analyzers)
			}
		}
	}
	kept := findings[:0]
	for _, f := range findings {
		if lines := suppressed[f.Pos.Filename]; lines != nil {
			if names := lines[f.Pos.Line]; names[f.Analyzer] || names["*"] {
				continue
			}
		}
		kept = append(kept, f)
	}
	return kept
}
