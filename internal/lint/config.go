package lint

// Config tells the passes the shape of the repository: which packages
// form the deterministic core, which types are pool-recycled, where
// the enum name tables live. The fixture tests substitute miniature
// shapes; DefaultConfig describes the real repo.
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

	// EnumTypes are fully qualified named types treated as closed enums:
	// switches over them must cover every declared constant or fail
	// loudly in default.
	EnumTypes []string
	// StrictEnumTypes are enum types (added to EnumTypes if not already
	// listed) where a loudly-failing default is not an escape: wire
	// protocol tags, where the default only classifies corrupt frames
	// and a missing case silently misroutes a valid one. Switches over
	// them must case every declared constant explicitly.
	StrictEnumTypes []string
	// EnumPkg is the module-relative package holding the public enum
	// name tables (the Parse* functions) — "" disables the table check.
	EnumPkg string
	// ModelIface is the fully qualified interface implemented by
	// workload models; ModelEncode/ModelDecode name EnumPkg's model
	// codec functions whose tag tables must cover every implementation.
	// ModelCodecPkg is the package that must carry per-model
	// EncodeState/DecodeState methods ("" disables).
	ModelIface    string
	ModelEncode   string
	ModelDecode   string
	ModelCodecPkg string

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

	// LockOrderPkgs are the module-relative packages whose mutex fields
	// are analyzed for acquisition cycles and for locks held across
	// blocking operations (channel sends/receives, blocking selects,
	// WaitGroup.Wait, net/net-http calls, exec.Cmd.Wait, time.Sleep).
	LockOrderPkgs []string

	// ChanClosePkgs are the module-relative packages where channel-close
	// discipline is enforced: a channel field may be closed unguarded
	// from at most one site (extra sites need a terminal-state guard),
	// and closing a function-parameter channel is always flagged.
	ChanClosePkgs []string

	// GoroTrackPkgs are the module-relative packages below the API
	// boundary where every `go` statement must be tracked: joined via a
	// WaitGroup or done channel, or bound to a cancellable context or
	// stop channel the launcher can reach.
	GoroTrackPkgs []string

	// FrameKindTypes are fully qualified frame-kind enums (wire message
	// tags): every declared constant must have at least one send/encode
	// site and one receive/dispatch site outside String/Parse tables —
	// a kind nobody produces is dead surface, a kind nobody dispatches
	// is silently dropped on receive.
	FrameKindTypes []string
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

		EnumTypes: []string{
			modulePath + ".System", modulePath + ".GVT", modulePath + ".Affinity",
			modulePath + ".Queue", modulePath + ".StateSaving",
			modulePath + "/internal/core.System", modulePath + "/internal/core.Affinity",
			modulePath + "/internal/gvt.Kind", modulePath + "/internal/pq.Kind",
			modulePath + "/internal/tw.SavePolicy",
			modulePath + "/internal/dist.MsgKind", modulePath + "/internal/dist.OpCode",
		},
		StrictEnumTypes: []string{
			modulePath + "/internal/dist.MsgKind", modulePath + "/internal/dist.OpCode",
		},
		EnumPkg:       ".",
		ModelIface:    modulePath + ".Model",
		ModelEncode:   "encodeModel",
		ModelDecode:   "decodeModel",
		ModelCodecPkg: "internal/models",

		RegistryType:  modulePath + "/internal/telemetry.Registry",
		ShardType:     modulePath + "/internal/telemetry.Shard",
		InventoryFile: "internal/telemetry/inventory.txt",

		CtxPkgs: []string{".", "internal/serve", "internal/machine"},

		LockOrderPkgs: []string{
			"internal/serve/...", "internal/dist", "internal/telemetry",
		},
		ChanClosePkgs: []string{
			".", "internal/serve/...", "internal/dist", "internal/telemetry",
		},
		GoroTrackPkgs: []string{
			".", "cmd/...", "internal/serve/...", "internal/dist",
		},
		FrameKindTypes: []string{
			modulePath + "/internal/dist.MsgKind",
			modulePath + "/internal/dist.OpCode",
		},
	}
}
