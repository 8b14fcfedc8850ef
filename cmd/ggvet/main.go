// Command ggvet runs the repo's domain-aware static-analysis suite:
// determinism of the simulation core, event-pool hygiene, telemetry
// naming, context plumbing, lock order and goroutine tracking. See
// internal/lint for the six passes.
//
// Usage:
//
//	ggvet [./...]
//	ggvet -write-inventory
//
// ggvet always analyzes the whole module containing the working
// directory (the passes are cross-package by nature), so the pattern
// argument is accepted for muscle-memory compatibility with go vet and
// ignored. -write-inventory regenerates the checked-in metric
// inventory from the registration sites instead of linting (the file
// `make lint` then audits both directions). Exit status: 0 clean, 1
// diagnostics, 2 load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ggpdes/internal/lint"
)

func main() {
	writeInv := flag.Bool("write-inventory", false, "regenerate the metric inventory file from registration sites, then exit")
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ggvet:", err)
		os.Exit(2)
	}
	prog, err := lint.Load(root, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ggvet:", err)
		os.Exit(2)
	}
	cfg := lint.DefaultConfig(prog.ModulePath)
	checker := lint.NewChecker(prog, cfg)
	if *writeInv {
		text, ok := checker.InventoryText()
		if !ok {
			fmt.Fprintln(os.Stderr, "ggvet: cannot resolve the telemetry registry type")
			os.Exit(2)
		}
		path := filepath.Join(root, filepath.FromSlash(cfg.InventoryFile))
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ggvet:", err)
			os.Exit(2)
		}
		fmt.Printf("ggvet: wrote %s\n", cfg.InventoryFile)
		return
	}
	diags := checker.Run(lint.Passes())
	for _, d := range diags {
		// Print module-relative paths: stable across machines and
		// clickable from the repo root, where make lint runs.
		if rel, err := filepath.Rel(root, d.Position.Filename); err == nil && !filepath.IsLocal(d.Position.Filename) {
			d.Position.Filename = filepath.ToSlash(rel)
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "ggvet: %d diagnostic(s)\n", len(diags))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
