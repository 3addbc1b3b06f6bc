// Command perple-convert is the PerpLE Converter front end: it reads a
// litmus test (a litmus7-style file, or a named test from the built-in
// perpetual suite), converts it to its perpetual counterpart and writes
// the Converter's output artifacts — per-thread perpetual assembly, the
// exhaustive and heuristic outcome counters as Go source, and the
// t_i_reads parameters file (Section V-A of the paper).
//
// Usage:
//
//	perple-convert -test sb -o out/            # suite test by name
//	perple-convert -file my.litmus -o out/     # litmus7-style file
//	perple-convert -test sb -print             # dump to stdout
//	perple-convert -test sb -outcomes all      # all outcomes, not just target
//	perple-convert -list                       # list suite tests
//
// Exit status: 0 success, 1 conversion or write error, 2 usage
// (including a test that cannot be loaded).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"perple/internal/core"
	"perple/internal/litmus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perple-convert", flag.ContinueOnError)
	fl.SetOutput(stderr)
	testName := fl.String("test", "", "suite test name (see -list)")
	file := fl.String("file", "", "litmus7-style test file")
	outDir := fl.String("o", ".", "output directory for generated files")
	print := fl.Bool("print", false, "print generated files to stdout instead of writing them")
	outcomes := fl.String("outcomes", "target", "outcomes of interest: target or all")
	explain := fl.Bool("explain", false, "narrate the conversion steps (paper Figures 6 and 8) instead of emitting files")
	list := fl.Bool("list", false, "list the built-in perpetual suite and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "perple-convert: "+format+"\n", a...)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perple-convert: %v\n", err)
		return 1
	}

	if *list {
		for _, e := range litmus.Suite() {
			group := "forbidden"
			if e.Allowed {
				group = "allowed"
			}
			fmt.Fprintf(stdout, "%-14s [%d,%d]  %-9s  %s\n", e.Test.Name, e.Test.T(), e.Test.TL(), group, e.Test.Doc)
		}
		return 0
	}
	if *outcomes != "target" && *outcomes != "all" {
		return usage("unknown -outcomes %q (want target or all)", *outcomes)
	}
	if (*testName == "") == (*file == "") {
		return usage("pass exactly one of -test <name> or -file <path> (or -list)")
	}
	var test *litmus.Test
	var err error
	if *testName != "" {
		test, err = litmus.SuiteTest(*testName)
	} else {
		test, err = litmus.ParseFile(*file)
	}
	if err != nil {
		return usage("%v", err)
	}

	pt, err := core.Convert(test)
	if err != nil {
		return fail(err)
	}

	if *explain {
		targets := []litmus.Outcome{test.Target}
		if *outcomes == "all" {
			targets = test.AllOutcomes()
		}
		for i, o := range targets {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			_, ex, err := core.Explain(pt, o)
			if err != nil {
				return fail(err)
			}
			fmt.Fprint(stdout, ex.String())
		}
		return 0
	}

	var pos []*core.PerpetualOutcome
	if *outcomes == "all" {
		if pos, err = core.ConvertAllOutcomes(pt); err != nil {
			return fail(err)
		}
	} else {
		po, err := core.ConvertOutcome(pt, test.Target)
		if err != nil {
			return fail(err)
		}
		pos = []*core.PerpetualOutcome{po}
	}

	files := core.GeneratedFiles(pt, pos)
	names := core.SortedFileNames(files)
	if *print {
		for _, name := range names {
			fmt.Fprintf(stdout, "===== %s =====\n%s\n", name, files[name])
		}
		return 0
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return fail(err)
	}
	for _, name := range names {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, []byte(files[name]), 0o644); err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, path)
	}
	return 0
}
