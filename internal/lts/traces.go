package lts

import (
	"sort"
	"strings"
)

// TraceSep separates labels within a rendered trace.
const TraceSep = " "

// WeakTraces enumerates the observable traces of the graph up to maxLen
// labels, skipping internal actions (weak traces). δ appears as the label
// "delta". The result is sorted and duplicate-free. Traces of a truncated
// graph are a subset of the true trace set.
//
// The empty trace is always included (as the empty string).
func WeakTraces(g *Graph, maxLen int) []string {
	s := NewSubsets(g)
	var out []string
	var walk func(n int32, trace string, depth int)
	walk = func(n int32, trace string, depth int) {
		out = append(out, trace)
		if depth >= maxLen {
			return
		}
		for _, st := range s.Succ(n) {
			walk(st.To, AppendTrace(trace, st.Label), depth+1)
		}
	}
	walk(0, "", 0)
	sort.Strings(out)
	return out
}

// AppendTrace extends a rendered trace by one label.
func AppendTrace(trace, label string) string {
	if trace == "" {
		return label
	}
	return trace + TraceSep + label
}

// AcceptsTrace reports whether the given observable trace (labels rendered
// as by Label.String, joined with TraceSep; "" is the empty trace) is a weak
// trace of the graph. For a truncated graph a false result may be spurious;
// true results are always sound. A specification's traces are checked
// exactly, with no depth bound, by its Monitor (CheckServiceTrace).
func AcceptsTrace(g *Graph, trace string) bool {
	if trace == "" {
		return true
	}
	s := NewSubsets(g)
	n := int32(0)
	for _, want := range strings.Split(trace, TraceSep) {
		if n = s.Next(n, want); n < 0 {
			return false
		}
	}
	return true
}

// ParseTrace splits a rendered trace into labels.
func ParseTrace(tr string) []string {
	if tr == "" {
		return nil
	}
	return strings.Split(tr, TraceSep)
}

// JoinTrace renders a label sequence as a trace string.
func JoinTrace(labels []string) string { return strings.Join(labels, TraceSep) }
