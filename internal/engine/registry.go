package engine

import (
	"context"
	"fmt"
	"strings"

	"corroborate/internal/truth"
)

// Method is a corroboration algorithm run under the shared runtime: given
// a dataset of votes it estimates which facts are true and (usually) how
// trustworthy each source is. Every registered method implements it.
type Method interface {
	// Name returns the method's display name as used in the paper's tables
	// (e.g. "TwoEstimate", "IncEstHeu").
	Name() string
	// RunWith corroborates the dataset: ctx is checked at every round
	// boundary, and opts overrides the method's defaults (iteration cap,
	// tolerance, seed) and attaches an Observer. Implementations must not
	// retain or mutate the dataset.
	RunWith(ctx context.Context, d *truth.Dataset, opts Options) (*truth.Result, error)
}

// Constructor builds a fresh instance of a registered method.
type Constructor func() Method

// Entry is one registry row: a constructor plus the metadata that drives
// the CLI's -list output and the README's generated method table.
type Entry struct {
	// Name is the method's display name, unique case-insensitively.
	Name string
	// Paper cites where the method comes from: a section of Wu & Marian
	// (EDBT 2014) or the related-work publication.
	Paper string
	// Doc is a one-line description.
	Doc string
	// Iterative reports that the method runs a fixpoint/round loop through
	// Iterate, so MaxIter/Tolerance options and mid-run cancellation apply.
	Iterative bool
	// Seeded reports that the method consumes Options.Seed.
	Seeded bool
	// New constructs a fresh instance with the method's defaults.
	New Constructor
}

// Registry is an ordered method catalogue. The zero value is not usable;
// call NewRegistry.
type Registry struct {
	entries []Entry
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Register appends an entry, keeping registration order as presentation
// order. Names must be unique case-insensitively, and every entry needs a
// constructor.
func (r *Registry) Register(e Entry) error {
	if e.Name == "" {
		return fmt.Errorf("engine: registry entry without a name")
	}
	if e.New == nil {
		return fmt.Errorf("engine: method %q registered without a constructor", e.Name)
	}
	key := strings.ToLower(e.Name)
	if _, dup := r.byName[key]; dup {
		return fmt.Errorf("engine: method %q registered twice", e.Name)
	}
	r.byName[key] = len(r.entries)
	r.entries = append(r.entries, e)
	return nil
}

// MustRegister is Register for static catalogues assembled at init time.
func (r *Registry) MustRegister(e Entry) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// Entries returns a copy of the catalogue in registration order.
func (r *Registry) Entries() []Entry {
	return append([]Entry(nil), r.entries...)
}

// Lookup resolves a method name case-insensitively.
func (r *Registry) Lookup(name string) (Entry, bool) {
	i, ok := r.byName[strings.ToLower(name)]
	if !ok {
		return Entry{}, false
	}
	return r.entries[i], true
}

// Names returns the registered display names in presentation order.
func (r *Registry) Names() []string {
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Name
	}
	return out
}

// Methods constructs every registered method in presentation order.
func (r *Registry) Methods() []Method {
	out := make([]Method, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.New()
	}
	return out
}
