// Command lolohalint is the multichecker for the LOLOHA engine's
// machine-checked contracts: noalloc (zero-alloc hot paths), lockorder
// (server lock discipline) and detrand (estimate-path determinism).
//
// Run it standalone:
//
//	go build -C lint -o bin/lolohalint ./cmd/lolohalint
//	lint/bin/lolohalint ./...
//
// or as a vet tool, which caches per-package results:
//
//	go vet -vettool=$PWD/lint/bin/lolohalint ./...
package main

import (
	"github.com/loloha-ldp/loloha/lint/analyzers/detrand"
	"github.com/loloha-ldp/loloha/lint/analyzers/lockorder"
	"github.com/loloha-ldp/loloha/lint/analyzers/noalloc"
	"github.com/loloha-ldp/loloha/lint/runner"
)

func main() {
	runner.Main(
		noalloc.Analyzer,
		lockorder.Analyzer,
		detrand.Analyzer,
	)
}
