// Command cgramap maps one application DFG onto one CGRA architecture
// using the paper's ILP formulation (or, with -engine anneal, the
// simulated-annealing baseline) and prints the resulting placement and
// routing.
//
// The application comes from -dfg (textual DFG file) or -benchmark (one
// of the paper's Table 1 kernels); the architecture from -arch (XML
// description) or the -grid family of flags. Examples:
//
//	cgramap -benchmark accum -rows 4 -cols 4 -contexts 2 -diagonal
//	cgramap -dfg kernel.dfg -arch mycgra.xml -objective routing
//	cgramap -benchmark mac -contexts 1 -lp model.lp   # export, don't solve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cgramap/internal/arch"
	"cgramap/internal/bench"
	"cgramap/internal/config"
	"cgramap/internal/dfg"
	"cgramap/internal/ilp"
	"cgramap/internal/mapper"
	"cgramap/internal/mrrg"
	"cgramap/internal/portfolio"
	"cgramap/internal/sim"
	"cgramap/internal/visual"
)

// runOpts carries one invocation's parsed flags.
type runOpts struct {
	dfgFile, benchName, archFile string
	rows, cols, contexts         int
	diagonal, hetero             bool
	objective, engine            string
	fallback                     bool
	solve                        mapper.SolveFlags
	autoII                       int
	timeout                      time.Duration
	lpOut                        string
	quiet, showCfg, validate     bool
	floorplan                    bool
}

func main() {
	var o runOpts
	flag.StringVar(&o.dfgFile, "dfg", "", "application DFG file (textual format)")
	flag.StringVar(&o.benchName, "benchmark", "", "built-in benchmark name (see 'experiments table1')")
	flag.StringVar(&o.archFile, "arch", "", "architecture XML file (default: grid flags below)")
	flag.IntVar(&o.rows, "rows", 4, "grid rows")
	flag.IntVar(&o.cols, "cols", 4, "grid columns")
	flag.IntVar(&o.contexts, "contexts", 1, "execution contexts (II)")
	flag.BoolVar(&o.diagonal, "diagonal", false, "diagonal interconnect")
	flag.BoolVar(&o.hetero, "heterogeneous", false, "multipliers in only half the blocks")
	flag.StringVar(&o.objective, "objective", "feasibility", "feasibility | routing (minimise routing resources)")
	flag.StringVar(&o.engine, "engine", "cdcl", "engine: cdcl | bb | portfolio (race all engines under the timeout) | anneal (simulated-annealing heuristic, fixed II only)")
	flag.BoolVar(&o.fallback, "fallback", true, "portfolio only: degrade to the annealing heuristic when no exact engine decides")
	flag.IntVar(&o.solve.Mapper.Workers, "workers", 0, "parallel solver workers: the clause-sharing gang width and the process worker budget (0 = all CPUs or $CGRAMAP_WORKERS; 1 = sequential, bit-reproducible with -seed)")
	flag.IntVar(&o.autoII, "auto-ii", 0, "search for the provably smallest initiation interval up to this bound (overrides -contexts; exact engines only)")
	flag.Var(&o.solve.Mapper.Symmetry, "symmetry", "symmetry-breaking constraints from verified fabric automorphisms: auto (on for -auto-ii, off otherwise) | on | off; same answer either way")
	flag.IntVar(&o.solve.ArtifactCache, "artifact-cache", 16, "artifact cache entries per class (cached MRRGs and formulation templates reused across the run; <= 0 disables)")
	flag.Int64Var(&o.solve.Mapper.Seed, "seed", 0, "base solver seed (0 = the engine default)")
	flag.DurationVar(&o.timeout, "timeout", 5*time.Minute, "solve timeout")
	flag.StringVar(&o.lpOut, "lp", "", "write the ILP model in LP format to this file and exit")
	flag.BoolVar(&o.quiet, "q", false, "print only the status line")
	flag.BoolVar(&o.showCfg, "config", false, "print the extracted fabric configuration")
	flag.BoolVar(&o.validate, "validate", false, "simulate the configuration and check it against DFG evaluation")
	flag.BoolVar(&o.floorplan, "floorplan", false, "print an ASCII floor plan of the mapping (grid architectures)")
	flag.Parse()
	code, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cgramap:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// Exit statuses, script-friendly: a wrapper can distinguish "mapping
// provably impossible" from "undecided within the budget" without
// parsing output.
const (
	exitOK         = 0 // feasible mapping found (or nothing to solve)
	exitError      = 1 // usage or internal error
	exitInfeasible = 2 // infeasibility proven
	exitUnknown    = 3 // timeout / undecided (the paper's "T")
)

func run(o runOpts) (int, error) {
	g, err := loadDFG(o.dfgFile, o.benchName)
	if err != nil {
		return exitError, err
	}
	a, err := loadArch(o.archFile, o.rows, o.cols, o.contexts, o.diagonal, o.hetero)
	if err != nil {
		return exitError, err
	}
	mg, err := mrrg.Generate(a)
	if err != nil {
		return exitError, err
	}
	fmt.Printf("mapping %s (%d ops, %d values) onto %s (%d MRRG nodes, %d contexts)\n",
		g.Name, g.NumOps(), g.NumVals(), a.Name, len(mg.Nodes), mg.Contexts)

	opts, err := o.solve.Options()
	if err != nil {
		return exitError, err
	}
	if opts.Objective, err = mapper.ParseObjective(o.objective); err != nil {
		return exitError, err
	}
	if opts, err = portfolio.Resolve(o.engine, o.autoII == 0, opts); err != nil {
		return exitError, err
	}

	if o.lpOut != "" {
		model, reason, err := mapper.BuildModel(g, mg, opts)
		if err != nil {
			return exitError, err
		}
		if model == nil {
			return exitInfeasible, fmt.Errorf("instance infeasible before solving: %s", reason)
		}
		f, err := os.Create(o.lpOut)
		if err != nil {
			return exitError, err
		}
		if err := writeLP(f, model); err != nil {
			return exitError, err
		}
		fmt.Printf("wrote %s (%d binaries, %d constraints)\n", o.lpOut, model.NumVars(), len(model.Constraints))
		return exitOK, nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	if o.autoII > 0 {
		return runAutoII(ctx, g, a, o, opts)
	}

	start := time.Now()
	var res *mapper.Result
	if o.engine == "portfolio" {
		pres, err := portfolio.Map(ctx, g, mg, portfolio.Options{
			Timeout:         o.timeout,
			DisableFallback: !o.fallback,
			Mapper:          opts,
		})
		if err != nil {
			return exitError, err
		}
		for _, rep := range pres.Reports {
			note := ""
			if rep.Winner {
				note = "  <- winner"
			} else if rep.Cancelled {
				note = "  (cancelled)"
			}
			if rep.Panics > 0 {
				note += fmt.Sprintf("  [%d panics contained]", rep.Panics)
			}
			fmt.Printf("portfolio: %-12s %-10v %d attempt(s) in %v%s\n",
				rep.Strategy, rep.Status, rep.Attempts, rep.Elapsed.Round(time.Millisecond), note)
		}
		if pres.Degraded() {
			fmt.Println("portfolio: DEGRADED — heuristic witness only, no optimality or infeasibility proof")
		}
		res = pres.Result
	} else {
		var err error
		res, err = mapper.Dispatch(ctx, g, mg, opts)
		if err != nil {
			return exitError, err
		}
	}
	return reportResult(res, g, o, time.Since(start))
}

// runAutoII sweeps the II ladder for the provably smallest initiation
// interval, sequentially or speculatively.
func runAutoII(ctx context.Context, g *dfg.Graph, a *arch.Arch, o runOpts, opts mapper.Options) (int, error) {
	start := time.Now()
	auto, err := mapper.MapAuto(ctx, g, a, o.autoII, opts)
	if err != nil {
		return exitError, err
	}
	if len(auto.Tried) > 0 {
		fmt.Printf("auto-ii: tried %d II(s): %v\n", len(auto.Tried), auto.Tried)
	}
	if auto.Feasible() {
		fmt.Printf("auto-ii: smallest II = %d (proven, %v)\n", auto.II, time.Since(start).Round(time.Millisecond))
	}
	return reportResult(auto.Result, g, o, time.Since(start))
}

// reportResult prints a mapping attempt's outcome and translates it to
// the script-friendly exit code.
func reportResult(res *mapper.Result, g *dfg.Graph, o runOpts, elapsed time.Duration) (int, error) {
	switch res.Status {
	case ilp.Infeasible:
		fmt.Printf("status: infeasible (proven in %v)", elapsed.Round(time.Millisecond))
		if res.Reason != "" {
			fmt.Printf(" — %s", res.Reason)
		}
		fmt.Println()
		return exitInfeasible, nil
	case ilp.Unknown:
		// A timeout, or a heuristic miss: undecided either way.
		fmt.Printf("status: undecided after %v (T)\n", elapsed.Round(time.Millisecond))
		if res.Reason != "" {
			fmt.Printf("  %s\n", res.Reason)
		}
		return exitUnknown, nil
	default:
		fmt.Printf("status: %s in %v (%d vars, %d constraints, routing cost %d)\n",
			res.Status, elapsed.Round(time.Millisecond),
			res.Vars, res.Constraints, res.Mapping.RoutingCost())
		if res.Reason != "" {
			fmt.Printf("  %s\n", res.Reason)
		}
		if !o.quiet {
			if err := res.Mapping.Write(os.Stdout); err != nil {
				return exitError, err
			}
		}
		if err := postProcess(res.Mapping, g, o.showCfg, o.validate, o.floorplan); err != nil {
			return exitError, err
		}
		return exitOK, nil
	}
}

// postProcess optionally prints the floor plan and fabric configuration,
// and validates the mapping by simulation.
func postProcess(m *mapper.Mapping, g *dfg.Graph, showCfg, validate, floorplan bool) error {
	if floorplan {
		if err := visual.WriteGrid(os.Stdout, m); err != nil {
			return err
		}
	}
	if !showCfg && !validate {
		return nil
	}
	cfg, err := config.Extract(m)
	if err != nil {
		return err
	}
	if showCfg {
		if err := cfg.Render(os.Stdout); err != nil {
			return err
		}
	}
	if validate {
		if !g.Acyclic() {
			return fmt.Errorf("-validate requires an acyclic DFG")
		}
		inputs := sim.DefaultInputs(g, 7)
		mem := map[uint32]uint32{}
		for a := uint32(0); a < 64; a++ {
			mem[a] = 2*a + 1
		}
		if err := sim.Validate(m, inputs, mem); err != nil {
			return err
		}
		fmt.Println("validated: simulated configuration matches DFG evaluation")
	}
	return nil
}

// writeLP writes m to w in LP format and closes w. A failed close fails
// the export like a failed write: on a full disk or a network file
// system it may be the only sign that the file is truncated.
func writeLP(w io.WriteCloser, m *ilp.Model) error {
	err := m.WriteLP(w)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadDFG(dfgFile, benchName string) (*dfg.Graph, error) {
	switch {
	case dfgFile != "" && benchName != "":
		return nil, fmt.Errorf("specify -dfg or -benchmark, not both")
	case dfgFile != "":
		f, err := os.Open(dfgFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dfg.Parse(f)
	case benchName != "":
		return bench.Get(benchName)
	default:
		return nil, fmt.Errorf("no application: use -dfg <file> or -benchmark <name>")
	}
}

func loadArch(archFile string, rows, cols, contexts int, diagonal, hetero bool) (*arch.Arch, error) {
	if archFile != "" {
		f, err := os.Open(archFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return arch.ReadXML(f)
	}
	ic := arch.Orthogonal
	if diagonal {
		ic = arch.Diagonal
	}
	return arch.Grid(arch.GridSpec{
		Rows: rows, Cols: cols,
		Interconnect: ic,
		Homogeneous:  !hetero,
		Contexts:     contexts,
	})
}
