package interp

// Named-instance registry: the linking substrate for multi-module workloads.
// Instances instantiated into the same Registry under a name become import
// providers for later instantiations — an import (mod, field) that the
// explicit Imports map does not satisfy resolves against the exports of the
// registered instance named mod, the way wazero's namespace (and the wasm JS
// embedding's import object of prior instances) links modules.

import (
	"fmt"
	"sort"
	"sync"

	"wasabi/internal/failpoint"
	"wasabi/internal/wasm"
)

// Registry maps instance names to instantiated modules. It is safe for
// concurrent use; the instances themselves are not (each instance must still
// be driven from one goroutine at a time).
type Registry struct {
	mu        sync.Mutex
	instances map[string]*Instance // nil value = name reserved, instantiation in flight
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instances: make(map[string]*Instance)}
}

// Lookup returns the instance registered under name.
func (r *Registry) Lookup(name string) (*Instance, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst, ok := r.instances[name]
	return inst, ok && inst != nil
}

// Remove unregisters name (e.g. when retiring a long-running server's
// instance). Removing an unknown name is a no-op.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.instances, name)
}

// Names returns the registered instance names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.instances))
	for name, inst := range r.instances {
		if inst != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// reserve claims name for an in-flight instantiation so concurrent
// InstantiateIn calls cannot race to the same name.
func (r *Registry) reserve(name string) error {
	// Fault-injection seam: a reservation failure must surface as a typed
	// error before any instance state exists.
	if err := failpoint.Inject(failpoint.RegistryReserve); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, taken := r.instances[name]; taken {
		return fmt.Errorf("interp: instance name %q already registered", name)
	}
	r.instances[name] = nil
	return nil
}

// commit fills a reservation; release drops it (instantiation failed).
func (r *Registry) commit(name string, inst *Instance) {
	r.mu.Lock()
	r.instances[name] = inst
	r.mu.Unlock()
}

func (r *Registry) release(name string) {
	r.mu.Lock()
	delete(r.instances, name)
	r.mu.Unlock()
}

// Export resolves one export of the instance into an importable value: a
// *HostFunc wrapper for functions (calls run on this instance), the *Memory,
// *Table, or *Global itself otherwise. The function wrapper makes
// cross-instance calls first-class: the importing instance sees a host
// function, so hooks of an instrumented callee still fire in the callee's
// own session. The error distinguishes a missing export from one that
// exists but cannot be resolved (corrupt index/signature).
func (inst *Instance) Export(field string) (any, error) {
	for _, e := range inst.Module.Exports {
		if e.Name != field {
			continue
		}
		switch e.Kind {
		case wasm.ExternFunc:
			idx := e.Idx
			sig, err := inst.FuncSig(idx)
			if err != nil {
				return nil, fmt.Errorf("export %q: %w", field, err)
			}
			return &HostFunc{
				Type: sig,
				Fn: func(_ *Instance, args []Value) ([]Value, error) {
					return inst.InvokeIdx(idx, args...)
				},
			}, nil
		case wasm.ExternMemory:
			if inst.Memory != nil {
				return inst.Memory, nil
			}
		case wasm.ExternTable:
			if inst.Table != nil {
				return inst.Table, nil
			}
		case wasm.ExternGlobal:
			if int(e.Idx) < len(inst.Globals) {
				return inst.Globals[e.Idx], nil
			}
		}
		return nil, fmt.Errorf("export %q (kind %d, index %d) is unresolvable", field, e.Kind, e.Idx)
	}
	return nil, fmt.Errorf("no export %q", field)
}
