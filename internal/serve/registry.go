package serve

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cosmo"
	"repro/internal/nn"
	"repro/internal/serve/api"
)

// ModelConfig describes one named model to serve.
type ModelConfig struct {
	// Name is the registry key; "" means DefaultModel.
	Name string
	// Topology builds the network the checkpoint was trained with. The
	// config's Pool field is ignored: replicas get their own pools.
	Topology nn.TopologyConfig
	// CheckpointPath, when non-empty, is loaded via nn.LoadCheckpoint.
	// Empty serves freshly initialized weights (benchmarks, smoke tests).
	CheckpointPath string
	// Priors denormalize network outputs into physical parameters; the
	// zero value selects cosmo.DefaultPriors.
	Priors cosmo.Priors
	// Replicas is the concurrent-inference bound (default 1).
	Replicas int
	// WorkersPerReplica sizes each replica's compute pool (default 1).
	WorkersPerReplica int
	// MaxBatch and MaxDelay tune the micro-batcher (defaults 8, 2ms).
	MaxBatch int
	MaxDelay time.Duration
	// Trace opts this model into per-layer forward timing, surfaced in
	// /stats and GET /v1/trace. One trace aggregates the whole replica
	// pool; off by default (the untraced forward pays one nil check).
	Trace bool
}

// DefaultModel is the model name used when a ModelConfig names none.
const DefaultModel = api.DefaultModel

// ModelState is a registry entry's lifecycle phase, as reported by
// /healthz and /v1/models.
type ModelState string

// Lifecycle states. An entry with a serving instance is Ready even while
// a hot-swap load for the same name is in flight — readiness tracks
// whether requests are answered, not whether a newer instance is coming.
const (
	StateLoading ModelState = api.StateLoading
	StateReady   ModelState = api.StateReady
	StateFailed  ModelState = api.StateFailed
)

// ModelInfo is one registry entry's lifecycle snapshot.
type ModelInfo struct {
	Name  string
	State ModelState
	// Err is the most recent load failure (nil once a load succeeds). It
	// can be set alongside StateReady when a later hot-swap attempt failed
	// and the previous instance kept serving.
	Err error
	// Model is the serving instance; nil unless State is StateReady.
	Model *Model
	// Config is the config the serving instance was loaded with (zero
	// until the first successful load).
	Config   ModelConfig
	LoadedAt time.Time
}

// entry tracks one model name across loads: the currently serving
// instance (if any), in-flight load attempts, and the last failure.
type entry struct {
	model    *Model
	cfg      ModelConfig
	loadedAt time.Time
	loading  int // in-flight Load/LoadAsync builds for this name
	loadErr  error
}

func (e *entry) state() ModelState {
	switch {
	case e.model != nil:
		return StateReady
	case e.loading > 0:
		return StateLoading
	default:
		return StateFailed
	}
}

// Registry holds the named models a server exposes and drives their
// lifecycle: Load with an existing name atomically replaces the entry
// (hot-swap), the old instance keeps serving until the new one is ready
// and then drains in the background, and Unload removes a model the same
// way. In-flight requests always finish on the instance they resolved.
// Weights are never mutated in place — a swap is always a fresh network +
// replica set — which is what keeps the weight-sharing clones sound.
type Registry struct {
	mu       sync.RWMutex
	models   map[string]*entry
	closed   bool
	draining sync.WaitGroup // displaced/unloaded models still shutting down
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*entry)}
}

// Load builds the model (network, checkpoint, replicas, batcher) and
// installs it, replacing and draining any previous model of the same
// name. The previous instance, if any, keeps serving while the new one
// builds. A failed load leaves the previous instance untouched and
// records the error in the entry's status.
func (r *Registry) Load(cfg ModelConfig) (*Model, error) {
	if cfg.Name == "" {
		cfg.Name = DefaultModel
	}
	e, err := r.beginLoad(cfg.Name)
	if err != nil {
		return nil, err
	}
	// keepFailed=false: this caller gets the error synchronously, so a
	// failed load of a never-ready name leaves no registry tombstone.
	return r.finishLoad(cfg, e, false)
}

// LoadAsync starts a Load in the background, marking the entry as loading
// before returning so readiness probes immediately see the pending model.
// The returned channel delivers the load's result exactly once.
func (r *Registry) LoadAsync(cfg ModelConfig) <-chan error {
	ch := make(chan error, 1)
	if cfg.Name == "" {
		cfg.Name = DefaultModel
	}
	e, err := r.beginLoad(cfg.Name)
	if err != nil {
		ch <- err
		return ch
	}
	go func() {
		// keepFailed=true: nobody is waiting on this call path to learn the
		// outcome synchronously, so a failure must stay visible in the
		// entry (StateFailed via /healthz) until cleared by a later
		// successful load or an Unload.
		_, err := r.finishLoad(cfg, e, true)
		ch <- err
	}()
	return ch
}

// beginLoad registers an in-flight load for name, creating the entry so
// /healthz reports it (loading) before the build completes, and returns
// the entry this load is bound to.
func (r *Registry) beginLoad(name string) (*entry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	e := r.models[name]
	if e == nil {
		e = &entry{}
		r.models[name] = e
	}
	e.loading++
	return e, nil
}

// finishLoad builds the model off-lock and installs it into the entry the
// load was bound to at beginLoad. The identity check (r.models[name] must
// still be e) resolves every lifecycle race: Close, Unload (entry gone),
// and Unload-then-reload (a different entry now owns the name) all orphan
// this load — its instance is torn down instead of displacing a newer
// model or corrupting the new entry's accounting.
func (r *Registry) finishLoad(cfg ModelConfig, e *entry, keepFailed bool) (*Model, error) {
	m, err := newModel(cfg)
	r.mu.Lock()
	e.loading--
	if r.closed || r.models[cfg.Name] != e {
		r.mu.Unlock()
		if m != nil {
			m.Close()
		}
		if err != nil {
			return nil, err
		}
		return nil, ErrClosed
	}
	if err != nil {
		if keepFailed || e.model != nil || e.loading > 0 {
			e.loadErr = err
		} else {
			// No serving instance, no other load in flight, and the caller
			// holds the error: drop the entry rather than leave a failed
			// tombstone that would flip /healthz unready over one rejected
			// synchronous load (e.g. a PUT with a bad checkpoint path).
			delete(r.models, cfg.Name)
		}
		r.mu.Unlock()
		return nil, err
	}
	old := e.model
	e.model, e.cfg, e.loadedAt, e.loadErr = m, cfg, time.Now(), nil
	if old != nil {
		// Count the displaced instance into the drain group while still
		// holding the lock: Close sets closed under the same lock, so its
		// Wait can never start while this Add is pending (the WaitGroup
		// contract). The drain itself runs off the caller's path; requests
		// that still hold the old instance complete, later submits get
		// ErrClosed and re-resolve to the new instance.
		r.draining.Add(1)
	}
	r.mu.Unlock()
	if old != nil {
		go func() {
			defer r.draining.Done()
			old.Close()
		}()
	}
	return m, nil
}

// Unload removes name from the registry and drains its instance in the
// background: in-flight requests finish on it, later submits get
// ErrClosed (HTTP 503 → clients retry and then see 404). It also clears a
// failed or still-loading entry — a load completing after its entry was
// unloaded tears its instance down instead of installing it. Reports
// whether the name existed.
func (r *Registry) Unload(name string) bool {
	if name == "" {
		name = DefaultModel
	}
	r.mu.Lock()
	e, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return false
	}
	delete(r.models, name)
	m := e.model
	if m != nil {
		r.draining.Add(1)
	}
	r.mu.Unlock()
	if m != nil {
		go func() {
			defer r.draining.Done()
			m.Close()
		}()
	}
	return true
}

// Get resolves a ready model by name ("" selects DefaultModel).
func (r *Registry) Get(name string) (*Model, bool) {
	if name == "" {
		name = DefaultModel
	}
	r.mu.RLock()
	e, ok := r.models[name]
	var m *Model
	if ok {
		m = e.model
	}
	r.mu.RUnlock()
	return m, m != nil
}

// Names lists the registered model names (every lifecycle state), sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Info snapshots every entry's lifecycle state, sorted by name.
func (r *Registry) Info() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.models))
	for name, e := range r.models {
		out = append(out, ModelInfo{
			Name:     name,
			State:    e.state(),
			Err:      e.loadErr,
			Model:    e.model,
			Config:   e.cfg,
			LoadedAt: e.loadedAt,
		})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// InfoFor snapshots one entry's lifecycle state by name.
func (r *Registry) InfoFor(name string) (ModelInfo, bool) {
	if name == "" {
		name = DefaultModel
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	if !ok {
		return ModelInfo{}, false
	}
	return ModelInfo{
		Name:     name,
		State:    e.state(),
		Err:      e.loadErr,
		Model:    e.model,
		Config:   e.cfg,
		LoadedAt: e.loadedAt,
	}, true
}

// Ready reports whether the registry can serve: at least one model is
// configured and every configured model has a serving instance. This is
// the /healthz readiness contract — a daemon that loads its models
// asynchronously answers 503 here until the last checkpoint is loaded and
// its replicas built.
func (r *Registry) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.models) == 0 {
		return false
	}
	for _, e := range r.models {
		if e.model == nil {
			return false
		}
	}
	return true
}

// Close drains and tears down every model, including instances displaced
// by earlier hot-swaps or unloads that are still draining in the
// background. The registry is unusable afterwards: subsequent Loads
// return ErrClosed, and loads already in flight tear their instances
// down on completion instead of installing them.
func (r *Registry) Close() {
	r.mu.Lock()
	r.closed = true
	models := r.models
	r.models = make(map[string]*entry)
	r.mu.Unlock()
	for _, e := range models {
		if e.model != nil {
			e.model.Close()
		}
	}
	r.draining.Wait()
}

// buildNetwork constructs and initializes the model's base network.
func buildNetwork(cfg ModelConfig) (*nn.Network, error) {
	topo := cfg.Topology
	topo.Pool = nil
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		return nil, err
	}
	if cfg.CheckpointPath != "" {
		if err := net.LoadCheckpointFile(cfg.CheckpointPath); err != nil {
			return nil, fmt.Errorf("serve: loading %s: %w", cfg.CheckpointPath, err)
		}
	}
	return net, nil
}
