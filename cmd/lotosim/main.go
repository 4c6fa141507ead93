// Command lotosim explores the behaviour of any specification written in
// the paper's language: reachable states, transitions, weak traces and
// deadlocks, derived with the Basic-LOTOS operational semantics.
//
// Usage:
//
//	lotosim [flags] spec.lotos     (or "-" for stdin)
//
// Flags:
//
//	-traces N     enumerate weak traces up to N observable events
//	-depth N      bound exploration to N observable events (default 16)
//	-maxstates N  cap explored states (default 20000)
//	-transitions  print every explored transition
//	-engine E     "ast" explores with depth bounds (default); "fsm" compiles
//	              the behaviour to a table-driven machine (full closure, no
//	              depth bound) and reports its exact and weak-bisimulation-
//	              minimized sizes, falling back to ast when the state space
//	              exceeds -maxstates
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/equiv"
	"repro/internal/fsm"
	"repro/internal/lotos"
	"repro/internal/lts"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lotosim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	traces := fs.Int("traces", 0, "enumerate weak traces up to this length")
	depth := fs.Int("depth", 16, "observable exploration depth")
	maxStates := fs.Int("maxstates", 0, "state cap (0 = default)")
	showTrans := fs.Bool("transitions", false, "print all transitions")
	minimize := fs.Bool("minimize", false, "also report the weak-bisimulation quotient")
	dot := fs.Bool("dot", false, "emit the graph in Graphviz dot format and exit")
	engine := fs.String("engine", "ast", "execution engine: ast (depth-bounded exploration) or fsm (compile to tables)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: lotosim [flags] spec.lotos\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}

	src, err := cli.ReadInput(fs.Arg(0), stdin)
	if err != nil {
		fmt.Fprintln(stderr, "lotosim:", err)
		return cli.ExitUsage
	}
	sp, err := lotos.Parse(src)
	if err != nil {
		fmt.Fprintln(stderr, "lotosim: parse:", err)
		return cli.ExitUsage
	}
	switch *engine {
	case "ast", "fsm":
	default:
		fmt.Fprintf(stderr, "lotosim: unknown engine %q (want \"ast\" or \"fsm\")\n", *engine)
		return cli.ExitUsage
	}
	lotos.Number(sp)

	// The two engines produce the graph differently: ast explores the tree
	// under the depth bounds; fsm compiles the full behaviour closure to
	// tables (no depth bound — unbounded behaviours fail with a structured
	// CompileError and fall back to ast).
	var g *lts.Graph
	var machine *fsm.Machine
	if *engine == "fsm" {
		m, err := fsm.Compile(0, sp, fsm.Config{MaxStates: *maxStates})
		if err != nil {
			var ce *fsm.CompileError
			if !errors.As(err, &ce) {
				fmt.Fprintln(stderr, "lotosim:", err)
				return cli.ExitFail
			}
			fmt.Fprintf(stdout, "engine:      ast (fsm fallback: %s)\n", ce.Reason)
		} else {
			machine = m
		}
	}
	if machine != nil {
		g = machine.Graph()
		fmt.Fprintf(stdout, "engine:      fsm (compiled, %d states / %d transitions minimized)\n",
			machine.MinStates(), machine.MinTransitions())
	} else {
		g, err = lts.ExploreSpec(sp, lts.Limits{MaxObsDepth: *depth, MaxStates: *maxStates})
		if err != nil {
			fmt.Fprintln(stderr, "lotosim:", err)
			return cli.ExitFail
		}
	}
	quotient := func() *lts.Graph {
		if machine != nil {
			return machine.MinGraph()
		}
		return equiv.QuotientWeak(g)
	}
	if *dot {
		target := g
		if *minimize {
			target = quotient()
		}
		fmt.Fprint(stdout, target.DOT(fs.Arg(0)))
		return cli.ExitOK
	}
	fmt.Fprintf(stdout, "states:      %d\n", g.NumStates())
	fmt.Fprintf(stdout, "transitions: %d\n", g.NumTransitions())
	fmt.Fprintf(stdout, "truncated:   %v\n", g.Truncated)
	fmt.Fprintf(stdout, "labels:      %v\n", g.Labels())
	dl := g.Deadlocks()
	fmt.Fprintf(stdout, "deadlocks:   %d\n", len(dl))
	for _, s := range dl {
		if g.States[s] != nil {
			fmt.Fprintf(stdout, "  deadlocked state: %s\n", lotos.Format(g.States[s]))
		} else {
			fmt.Fprintf(stdout, "  deadlocked state: %s\n", g.Keys[s])
		}
	}
	if *showTrans {
		for s := 0; s < g.NumStates(); s++ {
			for _, e := range g.Out(s) {
				fmt.Fprintf(stdout, "  %4d --%s--> %d\n", s, g.Table.Name(e.Label), e.To)
			}
		}
	}
	if *minimize {
		q := quotient()
		fmt.Fprintf(stdout, "weak-bisimulation quotient: %d states / %d transitions\n",
			q.NumStates(), q.NumTransitions())
	}
	if *traces > 0 {
		fmt.Fprintf(stdout, "weak traces (<= %d events):\n", *traces)
		for _, tr := range lts.WeakTraces(g, *traces) {
			if tr == "" {
				fmt.Fprintln(stdout, "  <empty>")
				continue
			}
			fmt.Fprintf(stdout, "  %s\n", tr)
		}
	}
	if len(dl) > 0 {
		return cli.ExitFail
	}
	return cli.ExitOK
}
