package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"strings"
	"sync"
)

// Suppression directives.
//
//	//das:allow <analyzer>[,<analyzer>...] -- <reason>
//
// An allow directive silences the named analyzers' findings on the line
// it shares with code, or — when it stands on a line of its own — on the
// line immediately below it. It requires a reason after " -- "; the
// directive analyzer rejects reason-less or unknown-analyzer directives,
// so every exemption in the tree is explained. Any other //das: comment is
// a finding too, so a misspelled or retired directive cannot sit in the
// tree looking as if it did something.

const directivePrefix = "//das:"

type directive struct {
	kind      string   // the word after //das:; "allow" is the one that works
	analyzers []string // analyzer names it silences
	reason    string
	pos       token.Pos
	file      string
	line      int  // line the directive occupies
	ownLine   bool // true when nothing but the comment is on its line
	bad       string

	// suppressed counts the findings this directive silenced, for the
	// stale-directive check.
	suppressed int
}

// collectDirectives scans every comment in files for das: directives.
// Malformed ones are returned with bad set; the directive analyzer
// reports them.
func collectDirectives(fset *token.FileSet, files []*ast.File) []*directive {
	var out []*directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(fset, c)
				if ok {
					out = append(out, d)
				}
			}
		}
	}
	return out
}

func parseDirective(fset *token.FileSet, c *ast.Comment) (*directive, bool) {
	text, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		return nil, false
	}
	kind := text
	if i := strings.IndexAny(text, " \t"); i >= 0 {
		kind, text = text[:i], text[i:]
	} else {
		text = ""
	}
	pos := fset.Position(c.Pos())
	d := &directive{
		kind:    kind,
		pos:     c.Pos(),
		file:    pos.Filename,
		line:    pos.Line,
		ownLine: startsLine(pos),
	}
	if kind != "allow" {
		d.bad = "unknown kind, //das:allow is the one directive"
		return d, true
	}
	body, reason, found := strings.Cut(text, "--")
	if !found || strings.TrimSpace(reason) == "" {
		d.bad = "missing ' -- reason'"
		return d, true
	}
	d.reason = strings.TrimSpace(reason)
	body = strings.TrimSpace(body)
	if body == "" {
		d.bad = "names no analyzer"
		return d, true
	}
	for _, name := range strings.FieldsFunc(body, func(r rune) bool { return r == ',' || r == ' ' }) {
		if !knownAnalyzer(name) {
			d.bad = "unknown analyzer " + name
			return d, true
		}
		d.analyzers = append(d.analyzers, name)
	}
	return d, true
}

func knownAnalyzer(name string) bool {
	for _, a := range All() {
		if a.Name == name {
			return true
		}
	}
	return false
}

// startsLine reports whether the comment at p is the first non-blank text
// on its source line (a standalone directive, as opposed to one trailing
// code). Reading the file is fine here: the parser just did, and the
// result is cached per file.
func startsLine(p token.Position) bool {
	lines, err := sourceLines(p.Filename)
	if err != nil || p.Line-1 >= len(lines) || p.Column < 1 {
		return false
	}
	line := lines[p.Line-1]
	if p.Column-1 > len(line) {
		return false
	}
	return strings.TrimSpace(line[:p.Column-1]) == ""
}

var sourceLineCache = struct {
	sync.Mutex
	m map[string][]string
}{m: make(map[string][]string)}

func sourceLines(filename string) ([]string, error) {
	sourceLineCache.Lock()
	defer sourceLineCache.Unlock()
	if lines, ok := sourceLineCache.m[filename]; ok {
		return lines, nil
	}
	data, err := os.ReadFile(filename)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	sourceLineCache.m[filename] = lines
	return lines, nil
}

// filterSuppressed drops diagnostics covered by a well-formed allow
// directive: same file, and either the directive shares the diagnostic's
// line or stands alone on the line directly above it. Each suppression is
// counted on the directive, so Check can tell which allows earn their
// keep.
func filterSuppressed(fset *token.FileSet, dirs []*directive, diags []Diagnostic) []Diagnostic {
	if len(dirs) == 0 {
		return diags
	}
	var out []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		suppressed := false
		for _, dir := range dirs {
			if dir.bad != "" || dir.file != p.Filename {
				continue
			}
			if dir.line != p.Line && !(dir.ownLine && dir.line == p.Line-1) {
				continue
			}
			for _, name := range dir.analyzers {
				if name == d.Analyzer {
					suppressed = true
					dir.suppressed++
				}
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	return out
}

// staleDirectives reports well-formed allow directives that no longer do
// anything, so suppressions cannot rot in place. An allow directive is
// stale when every analyzer it names ran and none produced a finding for
// it to suppress; a run of fewer analyzers leaves the others' allows
// alone.
func staleDirectives(dirs []*directive, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, dir := range dirs {
		if dir.bad != "" || dir.suppressed > 0 {
			continue
		}
		allRan := true
		for _, name := range dir.analyzers {
			if !hasAnalyzer(analyzers, name) {
				allRan = false
			}
		}
		if allRan {
			out = append(out, Diagnostic{
				Pos:      dir.pos,
				Analyzer: "directive",
				Message: fmt.Sprintf("stale //das:allow directive: no %s finding on the guarded line",
					strings.Join(dir.analyzers, "/")),
			})
		}
	}
	return out
}

// Directive validates the das: directives themselves, so a reason-less or
// misspelled exemption is an error rather than a silent no-op.
var Directive = &Analyzer{
	Name: "directive",
	Doc: `report malformed, unknown and stale //das: directives

An allow directive must carry ' -- reason' and name known analyzers; a
//das: comment of any other kind is reported as unknown. A well-formed
allow that suppressed no finding of the analyzers it names, all of which
ran, is reported as stale. Findings of this analyzer cannot themselves be
suppressed.`,
	Run: func(pass *Pass) error {
		for _, dir := range pass.directives {
			if dir.bad != "" {
				pass.Reportf(dir.pos, "malformed //das:%s directive: %s", dir.kind, dir.bad)
			}
		}
		return nil
	},
}
