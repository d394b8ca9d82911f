// Package diy generates GPU litmus tests from relaxed-edge specifications,
// following the diy toolsuite's axiomatic generation style (Sec. 4.1 of the
// paper): non-SC executions are encoded as cycles of relation edges; each
// well-formed cycle is synthesised into a litmus test whose final condition
// witnesses exactly that cycle.
//
// The GPU extension adds scope annotations on external edges (placing the
// linked threads in the same or different CTAs) and memory-map choices, the
// features the paper added to diy to reach 10930 generated tests.
package diy

import (
	"fmt"
	"strings"

	"github.com/weakgpu/gpulitmus/internal/ptx"
)

// EvKind is the kind of event an edge endpoint denotes.
type EvKind int

// Endpoint kinds.
const (
	R EvKind = iota
	W
)

// String returns "R" or "W".
func (k EvKind) String() string {
	if k == R {
		return "R"
	}
	return "W"
}

// DepKind selects how a dependency edge is manufactured (Sec. 4.5).
type DepKind int

// Dependency kinds.
const (
	NoDep   DepKind = iota
	DepAddr         // address dependency (the Fig. 13b and-scheme)
	DepData         // data dependency
	DepCtrl         // control dependency (and + setp + guard)
)

// ScopeAnn places the two threads an external edge links.
type ScopeAnn int

// Scope annotations on external edges.
const (
	ScopeDev ScopeAnn = iota // different CTAs (device scope)
	ScopeCta                 // same CTA, different warps
)

// Edge is one relaxed edge of a cycle.
type Edge struct {
	Name     string
	Src, Dst EvKind
	External bool      // crosses threads (com edges)
	SameLoc  bool      // endpoints access the same location
	Fence    ptx.Scope // ScopeNone when not a fence edge
	Dep      DepKind
	Scope    ScopeAnn // for external edges
}

// String returns the edge spec, e.g. "Rfe:cta" or "MembarGLdWR".
func (e Edge) String() string {
	s := e.Name
	if e.External && e.Scope == ScopeCta {
		s += ":cta"
	}
	return s
}

// baseEdges are the canonical edges by name.
var baseEdges = map[string]Edge{
	// Communication (external) edges; all relate the same location.
	"Rfe": {Name: "Rfe", Src: W, Dst: R, External: true, SameLoc: true},
	"Fre": {Name: "Fre", Src: R, Dst: W, External: true, SameLoc: true},
	"Coe": {Name: "Coe", Src: W, Dst: W, External: true, SameLoc: true},

	// Program order, different locations.
	"PodWW": {Name: "PodWW", Src: W, Dst: W},
	"PodWR": {Name: "PodWR", Src: W, Dst: R},
	"PodRW": {Name: "PodRW", Src: R, Dst: W},
	"PodRR": {Name: "PodRR", Src: R, Dst: R},

	// Program order, same location (read-read pairs: the coRR idiom).
	"PosRR": {Name: "PosRR", Src: R, Dst: R, SameLoc: true},

	// Dependencies, different locations.
	"DpAddrdR": {Name: "DpAddrdR", Src: R, Dst: R, Dep: DepAddr},
	"DpAddrdW": {Name: "DpAddrdW", Src: R, Dst: W, Dep: DepAddr},
	"DpDatadW": {Name: "DpDatadW", Src: R, Dst: W, Dep: DepData},
	"DpCtrldR": {Name: "DpCtrldR", Src: R, Dst: R, Dep: DepCtrl},
	"DpCtrldW": {Name: "DpCtrldW", Src: R, Dst: W, Dep: DepCtrl},

	// Fences, different locations, one per scope and endpoint pair.
	"MembarCTAdWW": {Name: "MembarCTAdWW", Src: W, Dst: W, Fence: ptx.ScopeCTA},
	"MembarCTAdWR": {Name: "MembarCTAdWR", Src: W, Dst: R, Fence: ptx.ScopeCTA},
	"MembarCTAdRW": {Name: "MembarCTAdRW", Src: R, Dst: W, Fence: ptx.ScopeCTA},
	"MembarCTAdRR": {Name: "MembarCTAdRR", Src: R, Dst: R, Fence: ptx.ScopeCTA},
	"MembarGLdWW":  {Name: "MembarGLdWW", Src: W, Dst: W, Fence: ptx.ScopeGL},
	"MembarGLdWR":  {Name: "MembarGLdWR", Src: W, Dst: R, Fence: ptx.ScopeGL},
	"MembarGLdRW":  {Name: "MembarGLdRW", Src: R, Dst: W, Fence: ptx.ScopeGL},
	"MembarGLdRR":  {Name: "MembarGLdRR", Src: R, Dst: R, Fence: ptx.ScopeGL},
	"MembarSYSdWW": {Name: "MembarSYSdWW", Src: W, Dst: W, Fence: ptx.ScopeSys},
	"MembarSYSdWR": {Name: "MembarSYSdWR", Src: W, Dst: R, Fence: ptx.ScopeSys},
	"MembarSYSdRW": {Name: "MembarSYSdRW", Src: R, Dst: W, Fence: ptx.ScopeSys},
	"MembarSYSdRR": {Name: "MembarSYSdRR", Src: R, Dst: R, Fence: ptx.ScopeSys},
}

// ParseEdge parses an edge spec: a base edge name with an optional ":cta"
// or ":dev" scope suffix on external edges.
func ParseEdge(spec string) (Edge, error) {
	name := spec
	scope := ScopeDev
	if i := strings.Index(spec, ":"); i >= 0 {
		name = spec[:i]
		switch spec[i+1:] {
		case "cta":
			scope = ScopeCta
		case "dev":
			scope = ScopeDev
		default:
			return Edge{}, fmt.Errorf("diy: unknown scope annotation %q", spec[i+1:])
		}
	}
	e, ok := baseEdges[name]
	if !ok {
		return Edge{}, fmt.Errorf("diy: unknown edge %q", name)
	}
	if scope == ScopeCta && !e.External {
		return Edge{}, fmt.Errorf("diy: scope annotation on internal edge %q", spec)
	}
	e.Scope = scope
	return e, nil
}

// ParseEdges parses a whitespace-separated edge list.
func ParseEdges(specs string) ([]Edge, error) {
	var edges []Edge
	for _, s := range strings.Fields(specs) {
		e, err := ParseEdge(s)
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
	return edges, nil
}
