package lint

// Config tells the passes the shape of the repository: which packages
// form the deterministic core, which types are pool-recycled, where
// metrics are registered. The fixture tests substitute miniature
// shapes; DefaultConfig describes the real repo, and TestRepoClean
// checks that every package pattern and type name in it still names
// something.
type Config struct {
	// DetCorePkgs are the module-relative package paths whose code must
	// be deterministic: no wall clock, no global math/rand, no goroutine
	// launches outside GoAllowedFiles, no multi-channel selects, no map
	// ranges, no unstable sorts without an annotation.
	DetCorePkgs []string
	// GoAllowedFiles are module-relative files allowed to contain `go`
	// statements inside the deterministic core — the simulated machine's
	// cooperative-scheduler launch site.
	GoAllowedFiles []string

	// PooledTypes are fully qualified named types ("pkgpath.Name") whose
	// pointers are pool-recycled; storing one into a struct field,
	// global, or escaping closure outside PoolOwnerPkgs is a
	// use-after-recycle hazard.
	PooledTypes []string
	// PoolOwnerPkgs are the module-relative packages that own the
	// recycling discipline (audited by hand, see internal/tw/pool.go)
	// and the generic containers events legitimately live in.
	PoolOwnerPkgs []string

	// RegistryType is the fully qualified telemetry registry type whose
	// Counter/Gauge/Histogram arguments are metric names.
	RegistryType string
	// ShardType is the fully qualified per-thread shard handle type
	// whose Counter/Gauge/Histogram calls register the same names ("" =
	// registry only).
	ShardType string
	// InventoryFile is the checked-in metric inventory, one
	// "kind name" pair per line, relative to the module root.
	InventoryFile string

	// CtxPkgs are the module-relative packages where context must be
	// threaded: no context.Background/TODO outside single-return
	// boundary wrappers, and exported functions taking a Context must
	// use it.
	CtxPkgs []string

	// LockOrderPkgs are the module-relative packages whose functions are
	// analyzed for re-acquiring a mutex they already hold.
	LockOrderPkgs []string

	// GoroTrackPkgs are the module-relative packages below the API
	// boundary where every `go` statement must be tracked: joined via a
	// WaitGroup or done channel, or bound to a cancellable context or
	// stop channel the launcher can reach.
	GoroTrackPkgs []string
}

// DefaultConfig is the real repository's shape.
func DefaultConfig(modulePath string) Config {
	return Config{
		DetCorePkgs: []string{
			"internal/tw", "internal/core", "internal/gvt",
			"internal/machine", "internal/models", "internal/rng", "internal/pq",
		},
		GoAllowedFiles: []string{"internal/machine/machine.go"},

		PooledTypes:   []string{modulePath + "/internal/tw.Event"},
		PoolOwnerPkgs: []string{"internal/tw", "internal/pq"},

		RegistryType:  modulePath + "/internal/telemetry.Registry",
		ShardType:     modulePath + "/internal/telemetry.Shard",
		InventoryFile: "internal/telemetry/inventory.txt",

		CtxPkgs: []string{".", "internal/serve", "internal/machine"},

		LockOrderPkgs: []string{"internal/serve/...", "internal/telemetry"},
		GoroTrackPkgs: []string{".", "cmd/...", "internal/serve/..."},
	}
}
