package provider

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/llm"
)

// BuildConfig carries everything a registry factory may need: the
// middleware stack knobs and, for fault-injecting providers, the fault
// profile.
type BuildConfig struct {
	Stack StackConfig
	Flaky FlakyConfig
}

// Factory builds a provider (already wrapped in its middleware stack)
// for one model profile.
type Factory func(model llm.Model, cfg BuildConfig) (Provider, error)

// Registry maps provider names to factories, so CLIs and the
// experiment harness select providers by name (-provider flag) and
// new backends plug in without touching the callers.
type Registry struct {
	mu        sync.RWMutex
	factories map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: map[string]Factory{}}
}

// Register adds a named factory; duplicate names are an error.
func (r *Registry) Register(name string, f Factory) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("provider %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// New builds the named provider for the given model.
func (r *Registry) New(name string, model llm.Model, cfg BuildConfig) (Provider, error) {
	r.mu.RLock()
	f, ok := r.factories[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown provider %q (have: %s)", name, strings.Join(r.Names(), ", "))
	}
	return f(model, cfg)
}

// Names lists the registered providers, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.factories))
	for n := range r.factories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DefaultRegistry holds the built-in providers: "offline" (the
// calibrated deterministic model) and "flaky" (seeded fault injection
// over offline). Both come wrapped in the configured middleware stack.
var DefaultRegistry = func() *Registry {
	r := NewRegistry()
	r.Register("offline", func(model llm.Model, cfg BuildConfig) (Provider, error) {
		return NewStack(NewOffline(model), cfg.Stack), nil
	})
	r.Register("flaky", func(model llm.Model, cfg BuildConfig) (Provider, error) {
		return NewStack(NewFlaky(NewOffline(model), cfg.Flaky), cfg.Stack), nil
	})
	return r
}()
