// Package annot indexes the //loloha: comment markers that carry the
// engine's machine-checked contracts:
//
//	//loloha:noalloc              (func doc)   function must not allocate
//	//loloha:alloc-ok <why>       (statement)  exempt one statement subtree
//	//loloha:steady               (statement)  force-check an early-exit branch
//	//loloha:locksafe <why>       (statement)  exempt a lockorder finding
//	//loloha:orderindep <why>     (statement)  exempt a detrand map-range
//
// Statement-level markers apply to code on the marker's own line or on the
// line directly below (i.e. a marker may trail the statement or sit on its
// own line above it). Several markers may stack on consecutive lines above
// one statement; the whole contiguous run applies.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment-directive namespace of the suite.
const Prefix = "loloha:"

// Index records, per file and line, which markers are present.
type Index struct {
	fset  *token.FileSet
	lines map[string]map[int][]string // filename -> line -> marker names
}

// NewIndex scans the comments of files.
func NewIndex(fset *token.FileSet, files []*ast.File) *Index {
	ix := &Index{fset: fset, lines: map[string]map[int][]string{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parse(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := ix.lines[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					ix.lines[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], name)
			}
		}
	}
	return ix
}

// parse extracts the marker name from one comment, e.g.
// "//loloha:alloc-ok cold path" -> "alloc-ok".
func parse(text string) (string, bool) {
	body, ok := strings.CutPrefix(text, "//"+Prefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		body = body[:i]
	}
	return body, body != ""
}

// At reports whether marker is present on node's first line or in the
// contiguous run of marker-bearing lines directly above it (markers may
// stack, one per line).
func (ix *Index) At(node ast.Node, marker string) bool {
	pos := ix.fset.Position(node.Pos())
	m := ix.lines[pos.Filename]
	if m == nil {
		return false
	}
	if hasMarker(m[pos.Line], marker) {
		return true
	}
	for l := pos.Line - 1; len(m[l]) > 0; l-- {
		if hasMarker(m[l], marker) {
			return true
		}
	}
	return false
}

func hasMarker(names []string, marker string) bool {
	for _, name := range names {
		if name == marker {
			return true
		}
	}
	return false
}

// FuncHas reports whether the doc comment of fd carries marker.
func FuncHas(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if name, ok := parse(c.Text); ok && name == marker {
			return true
		}
	}
	return false
}
