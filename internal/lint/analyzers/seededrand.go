package analyzers

import (
	"go/ast"
	"go/types"

	"diacap/internal/lint"
)

// seededRandAllowed are the constructors through which all randomness
// must flow: they produce a *rand.Rand (or source) from an explicit
// seed, which callers thread through the algorithms.
var seededRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// SeededRand forbids the package-level math/rand API in internal
// packages. The reproduction's headline numbers — heuristic D values,
// the Distributed-Greedy trajectory, the million-client pipeline's
// restarts — are only comparable across runs if every random draw comes from an
// injected seeded *rand.Rand; a stray rand.Intn consults the global
// generator and silently destroys run-to-run reproducibility (and
// rand.Seed poisons it process-wide).
var SeededRand = &lint.Analyzer{
	Name:  "seeded-rand",
	Doc:   "all randomness in internal/ must flow through an injected seeded *rand.Rand, never the global math/rand functions",
	Match: matchInternal,
	Run:   runSeededRand,
}

func runSeededRand(pass *lint.Pass) error {
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			path := fn.Pkg().Path()
			if path != "math/rand" && path != "math/rand/v2" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on an injected *rand.Rand are the point
			}
			if seededRandAllowed[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"call to global %s.%s: draws from the process-wide generator and breaks seeded determinism; thread a seeded *rand.Rand instead",
				path, fn.Name())
			return true
		})
	}
	return nil
}
