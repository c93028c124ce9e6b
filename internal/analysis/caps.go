package analysis

// Cap is a capability bitset with one bit per high-level callback an
// analysis can implement. It is finer-grained than HookSet: KindCall covers
// both the call_pre and call_post low-level hooks, but an analysis may
// implement only one of the two, and the runtime's per-spec trampolines bind
// the other to a shared no-op (which the interpreter then elides at compile
// time). The instrumenter keeps using HookSet — both call hooks must be
// instrumented together so pre/post events stay paired — while the runtime
// uses Cap to decide, per generated hook, whether dispatch can be dead.
type Cap uint32

const (
	CapNop Cap = 1 << iota
	CapUnreachable
	CapIf
	CapBr
	CapBrIf
	CapBrTable
	CapBegin
	CapEnd
	CapConst
	CapDrop
	CapSelect
	CapUnary
	CapBinary
	CapLocal
	CapGlobal
	CapLoad
	CapStore
	CapMemorySize
	CapMemoryGrow
	CapCallPre
	CapCallPost
	CapReturn
	CapStart
	// CapBlockCoverage marks an analysis that can consume one probe event
	// per CFG basic block (BlockCoverageHooker) instead of per-instruction
	// hooks: a static-analysis-enabled engine collapses its coverage-class
	// instrumentation to block probes (see internal/static).
	CapBlockCoverage
)

// AllCaps selects every per-instruction callback: instrumenting for AllCaps
// produces a module any analysis can attach to (the engine's compile-once /
// instrument-many default). CapBlockCoverage is excluded — block probes are
// an opt-in elision strategy, not part of "observe everything".
const AllCaps = Cap(1<<(numKinds+1)-1) &^ CapBlockCoverage // one bit per kind, plus the call pre/post split

// Has reports whether every bit of x is set in c.
func (c Cap) Has(x Cap) bool { return c&x == x }

// HasAny reports whether at least one bit of x is set in c.
func (c Cap) HasAny(x Cap) bool { return c&x != 0 }

// CapsOf inspects which hook interfaces the analysis implements and returns
// the matching capability bits.
func CapsOf(a any) Cap {
	var c Cap
	if _, ok := a.(NopHooker); ok {
		c |= CapNop
	}
	if _, ok := a.(UnreachableHooker); ok {
		c |= CapUnreachable
	}
	if _, ok := a.(IfHooker); ok {
		c |= CapIf
	}
	if _, ok := a.(BrHooker); ok {
		c |= CapBr
	}
	if _, ok := a.(BrIfHooker); ok {
		c |= CapBrIf
	}
	if _, ok := a.(BrTableHooker); ok {
		c |= CapBrTable
	}
	if _, ok := a.(BeginHooker); ok {
		c |= CapBegin
	}
	if _, ok := a.(EndHooker); ok {
		c |= CapEnd
	}
	if _, ok := a.(ConstHooker); ok {
		c |= CapConst
	}
	if _, ok := a.(DropHooker); ok {
		c |= CapDrop
	}
	if _, ok := a.(SelectHooker); ok {
		c |= CapSelect
	}
	if _, ok := a.(UnaryHooker); ok {
		c |= CapUnary
	}
	if _, ok := a.(BinaryHooker); ok {
		c |= CapBinary
	}
	if _, ok := a.(LocalHooker); ok {
		c |= CapLocal
	}
	if _, ok := a.(GlobalHooker); ok {
		c |= CapGlobal
	}
	if _, ok := a.(LoadHooker); ok {
		c |= CapLoad
	}
	if _, ok := a.(StoreHooker); ok {
		c |= CapStore
	}
	if _, ok := a.(MemorySizeHooker); ok {
		c |= CapMemorySize
	}
	if _, ok := a.(MemoryGrowHooker); ok {
		c |= CapMemoryGrow
	}
	if _, ok := a.(CallPreHooker); ok {
		c |= CapCallPre
	}
	if _, ok := a.(CallPostHooker); ok {
		c |= CapCallPost
	}
	if _, ok := a.(ReturnHooker); ok {
		c |= CapReturn
	}
	if _, ok := a.(StartHooker); ok {
		c |= CapStart
	}
	if _, ok := a.(BlockCoverageHooker); ok {
		c |= CapBlockCoverage
	}
	return c
}

// capOfKind maps a HookKind to its capability bits (both call bits for
// KindCall, since either callback makes the kind live).
var capOfKind = [NumKinds]Cap{
	KindNop:         CapNop,
	KindUnreachable: CapUnreachable,
	KindMemorySize:  CapMemorySize,
	KindMemoryGrow:  CapMemoryGrow,
	KindSelect:      CapSelect,
	KindDrop:        CapDrop,
	KindLoad:        CapLoad,
	KindStore:       CapStore,
	KindCall:        CapCallPre | CapCallPost,
	KindReturn:      CapReturn,
	KindConst:       CapConst,
	KindUnary:       CapUnary,
	KindBinary:      CapBinary,
	KindGlobal:      CapGlobal,
	KindLocal:       CapLocal,
	KindBegin:       CapBegin,
	KindEnd:         CapEnd,
	KindIf:          CapIf,
	KindBr:          CapBr,
	KindBrIf:        CapBrIf,
	KindBrTable:     CapBrTable,
	KindStart:       CapStart,
	KindBlockProbe:  CapBlockCoverage,
}

// CapOfKind returns the capability bits that make hooks of kind k live
// (0 for a kind this package does not know).
func CapOfKind(k HookKind) Cap {
	if k >= numKinds {
		return 0
	}
	return capOfKind[k]
}

// HookSet converts capability bits to the coarser HookSet used by the
// instrumenter: a kind is selected when any of its callbacks is implemented.
func (c Cap) HookSet() HookSet {
	var s HookSet
	for k := HookKind(0); k < numKinds; k++ {
		if c.HasAny(capOfKind[k]) {
			s = s.With(k)
		}
	}
	return s
}
