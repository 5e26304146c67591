// Package serve is the encrypted-inference serving runtime: it turns
// Cinnamon programs into a multi-tenant online service. The pipeline is
// registry → admission → worker slot → executor, all on the caller's
// goroutine:
//
//   - the Registry builds every catalog workload's IR graph and
//     level/scale plan once at startup and holds per-tenant evaluation
//     keys;
//   - bounded admission sheds load beyond AdmissionLimit, and a
//     Workers-sized semaphore bounds the executions — one-shots and
//     session steps alike — running at once; waiting requests honour their
//     own deadlines;
//   - a metrics core tracks counters, queue depth and streaming latency
//     quantiles, exposed as JSON.
//
// There is one executor (Core.execute): sched.Executor walks the program
// graph on a ckks.Evaluator — the library's planned, fused kernels — with
// a pluggable cluster keyswitcher and an optional bootstrap-refresh hook
// (Core.refresh: one solo bootstrap on that same evaluator, on the request's
// goroutine, inside the worker slot the request already holds).
// One-shots, deeper-than-chain one-shots and session steps all run through
// it. sched.BuildPlan runs the same walk at compile time over predicted
// (level, scale) states. The registry uses it to pick each program's input
// level — the least one whose plan succeeds with no more refreshes than the
// plan at MaxLevel — and admission truncates every one-shot to that level,
// so what /v1/programs advertises (input and output level, output scale,
// required keys, bootstraps_required) is what that walk does to an input at
// the program's InLevel. The paper's limb-ISA emulator is a functional model
// of the accelerator, not a serving engine: the registry still lowers each
// shallow program to its batch-1 limb module so the compiler stays
// exercised, and tests run that module on emulator.Machine as a bit-exact
// oracle for the executor. A program's DSL graph is its only encrypted
// definition; what it means is the catalog's EvalPlain, which clients and
// tests decrypt against at the program's VerifyTol.
//
// The package is stdlib-only; cmd/cinnamon-serve wraps it in net/http and
// cmd/cinnamon-loadgen drives it open-loop.
package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"

	"cinnamon/internal/bootstrap"
	"cinnamon/internal/ckks"
	"cinnamon/internal/compiler"
	"cinnamon/internal/dsl"
	"cinnamon/internal/limbir"
	"cinnamon/internal/polyir"
	"cinnamon/internal/sched"
	"cinnamon/internal/workloads"
)

// RegistryConfig configures program compilation.
type RegistryConfig struct {
	// Literal is the CKKS parameter literal; it is also what GET /v1/params
	// serves so clients can reconstruct an identical parameter set.
	Literal ckks.ParametersLiteral
	// Programs is the workload catalog to compile. Empty means the full
	// workloads.ServeWorkloads() catalog.
	Programs []workloads.ServeWorkload
	// MaxBatch is accepted and ignored: the request batcher it bounded is
	// gone. The field stays only because the frozen benchmark (bench/) sets
	// it; drop it with Snapshot.Batches / BatchedRequests.
	MaxBatch int
	// Bootstrap, when set, enables the bootstrapping service: the registry
	// precomputes the (key-independent) bootstrap circuit once, catalog
	// programs too deep for the modulus chain compile as Bootstrapped
	// entries (executed with mid-program refreshes) instead of being
	// skipped, and sessions may run indefinitely. Requires a sparse
	// secret (Literal.HammingWeight) and a chain deeper than the bootstrap
	// circuit itself.
	Bootstrap *bootstrap.Config
	// KeyBudgetBytes caps the bytes of decoded tenant eval keys held
	// resident (serialized-bundle length as the cost proxy). 0 means
	// unbounded — every registered tenant stays resident forever, the
	// pre-budget behavior. With a budget, each registration writes through
	// to a spill file of its own and least-recently-used tenants are
	// evicted to it; accesses reload transparently.
	KeyBudgetBytes int64
	// KeySpillDir is where evicted key bundles live. The registry owns it:
	// NewRegistry removes the spill files an earlier process left there.
	// Empty with a budget set means a fresh temp directory. Keys are lost
	// on restart either way, like the in-memory registry before it —
	// clients re-register.
	KeySpillDir string
}

// allocRegisters sizes the per-chip register file the limb modules are
// allocated against.
const allocRegisters = 96

// Variant is a program lowered to the limb ISA: one stream on one virtual
// chip (batch 1).
type Variant struct {
	Module *limbir.Module
}

// Program is a compiled catalog entry.
type Program struct {
	Spec workloads.ServeWorkload
	// InLevel is the level one-shot requests run at: the least input level
	// whose plan succeeds with no more refreshes than the plan at MaxLevel.
	// Requests may arrive at any level from InLevel up; admission truncates
	// them to it.
	InLevel int
	// OutLevel and OutScale describe the response ciphertext.
	OutLevel int
	OutScale float64
	// RequiredKeys lists the evaluation-key IDs a tenant must register
	// before running this program ("rlk", "rot:<k>", "conj"), sorted
	// rlk/conj first then rotations by offset.
	RequiredKeys []string
	// Rotations lists the slot-rotation offsets the compiled circuit
	// performs, deduped and ascending — the exact rotation-key set, taken
	// from the lowered IR rather than the catalog's declaration.
	Rotations []int
	// Plaintexts holds the server-side plaintext operands (model weights),
	// encoded once at startup and shared read-only across workers.
	Plaintexts map[string]*ckks.Plaintext
	// Bootstrapped marks a program whose plan refreshes mid-run
	// (BootstrapsRequired > 0 for a request arriving at InLevel) — one
	// deeper than the modulus chain. Execution is the same as any other
	// program's; the flag only extends RequiredKeys with the bootstrap
	// circuit's.
	Bootstrapped       bool
	BootstrapsRequired int
	// runKeys names the keys a run may bind: RequiredKeys, plus the
	// bootstrap circuit's when the registry has one (a refresh binds them
	// lazily, so any run may need them). A cold run reloads only these.
	runKeys []string
	// exec walks the program graph on a real evaluator — every request and
	// session step runs here.
	exec *sched.Executor
	// variant is the batch-1 limb module; nil for Bootstrapped programs
	// (the limb ISA cannot host more virtual than physical levels).
	variant *Variant
}

// VariantFor returns the program's batch-1 limb-ISA module whatever n is
// (nil for Bootstrapped programs). Serving does not execute it: it is
// lowered at start-up so the compiler stays exercised, and survives only
// for bench/'s emulator probes and the differential test, which run it on
// emulator.Machine as an oracle for the executor.
func (p *Program) VariantFor(n int) *Variant { return p.variant }

// Executor exposes the replay executor (tests and tooling).
func (p *Program) Executor() *sched.Executor { return p.exec }

// runOnce is what Spec.Reference is bound to: one run of the program's
// executor on ev, with no refresh service, of ct truncated to InLevel. The
// encoder is unused. It exists only for the frozen benchmark (bench/), which
// still calls Spec.Reference.
func (p *Program) runOnce(ev *ckks.Evaluator, _ *ckks.Encoder, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if ct.Level() < p.InLevel {
		return nil, fmt.Errorf("%w: ciphertext at level %d, program needs at least %d", ErrBadRequest, ct.Level(), p.InLevel)
	}
	return p.exec.Run(context.Background(), ev, ct.AtLevel(p.InLevel), sched.RunOpts{})
}

// Registry holds compiled programs and per-tenant key material.
type Registry struct {
	Params  *ckks.Parameters
	Literal ckks.ParametersLiteral

	programs map[string]*Program
	order    []string
	// Skipped lists catalog programs the parameter set cannot host, with
	// the reason. With bootstrapping enabled only MinSlots (and key/setup)
	// reasons remain — depth alone no longer skips a program.
	Skipped []string

	// Pre is the shared key-independent bootstrap circuit (nil when
	// bootstrapping is disabled).
	Pre *bootstrap.Precomp

	// keys is the budgeted tenant-key tier (keycache.go): always-resident
	// per-tenant metadata over an LRU of decoded key maps, spilling to a
	// disk store, one file per registration, when KeyBudgetBytes is set.
	keys *keyCache
}

// NewRegistry compiles the catalog: for every program, its IR graph and
// executor, output metadata (level and scale inferred from the graph) and
// the encoded plaintext operands.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	params, err := ckks.NewParameters(cfg.Literal)
	if err != nil {
		return nil, fmt.Errorf("serve: parameters: %w", err)
	}
	progs := cfg.Programs
	if len(progs) == 0 {
		progs = workloads.ServeWorkloads()
	}
	r := &Registry{
		Params:   params,
		Literal:  cfg.Literal,
		programs: map[string]*Program{},
	}
	var store *keyStore
	if cfg.KeyBudgetBytes > 0 {
		dir := cfg.KeySpillDir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "cinnamon-keyspill-"); err != nil {
				return nil, fmt.Errorf("serve: key spill dir: %w", err)
			}
		}
		if store, err = newKeyStore(dir); err != nil {
			return nil, err
		}
	}
	r.keys = newKeyCache(params, cfg.KeyBudgetBytes, store)
	// Freeze the execution schedules alongside the catalog: keyswitch
	// plans for every level (digit ranges, base converters, batch NTT
	// plans, mod-down plans) compile here, once, so no serving request
	// ever pays plan compilation or its allocations on the hot path.
	if err := params.CompilePlans(); err != nil {
		return nil, fmt.Errorf("serve: compiling keyswitch plans: %w", err)
	}
	if cfg.Bootstrap != nil {
		pre, err := bootstrap.NewPrecomp(params, *cfg.Bootstrap)
		if err != nil {
			return nil, fmt.Errorf("serve: bootstrap precomp: %w", err)
		}
		if pre.ExitLevel() < 1 {
			return nil, fmt.Errorf("serve: bootstrap circuit consumes %d levels but the chain has %d — no exit budget (need at least %d levels)", pre.Consumed(), params.MaxLevel(), pre.Consumed()+1)
		}
		r.Pre = pre
	}
	enc := ckks.NewEncoder(params)
	for _, spec := range progs {
		if _, dup := r.programs[spec.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate program %q", spec.Name)
		}
		// A program wider than the parameter set is skipped, not fatal:
		// narrow deployments keep serving the rest of the catalog.
		if spec.MinSlots > params.Slots() {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: needs %d slots, parameters have %d", spec.Name, spec.MinSlots, params.Slots()))
			continue
		}
		// A program deeper than the chain is a bootstrapping customer; it
		// only skips when the registry has no bootstrap service to offer.
		if spec.MinLevels > params.MaxLevel() && r.Pre == nil {
			r.Skipped = append(r.Skipped, fmt.Sprintf("%s: needs %d levels, parameters have %d (enable bootstrapping to serve it)", spec.Name, spec.MinLevels, params.MaxLevel()))
			continue
		}
		p, err := compileProgram(params, enc, spec, r.Pre)
		if err != nil {
			return nil, fmt.Errorf("serve: compiling %q: %w", spec.Name, err)
		}
		p.runKeys = runKeys(p.RequiredKeys, r.Pre)
		r.programs[spec.Name] = p
		r.order = append(r.order, spec.Name)
	}
	return r, nil
}

// Program looks up a compiled program.
func (r *Registry) Program(name string) (*Program, bool) {
	p, ok := r.programs[name]
	return p, ok
}

// ProgramNames lists programs in catalog order.
func (r *Registry) ProgramNames() []string {
	return append([]string(nil), r.order...)
}

// RegisterTenant installs (or replaces) a tenant's evaluation keys. The
// map is copied; callers keep ownership of theirs. With a key budget
// configured the bundle also writes through to the spill store, and the
// registration may evict colder tenants to fit. A replaced map leaves the
// cache like an evicted one: its keys leave the workers once no run holds
// them. A key with a digit partition (GenEvalKeyDigits) fails with
// ErrBadRequest: the key bundle does not carry the partition, so a spill
// reload would return a different key than the one registered. So does a
// key with fewer digits than the top level needs, which no keyswitch
// accepts, and a key whose name is not "rlk", "conj" or "rot:<k>" with k
// in canonical decimal (validKeyName): every run parses the names, and two
// spellings of one rotation would leave map order to pick the key.
func (r *Registry) RegisterTenant(id string, keys map[string]*ckks.EvalKey) error {
	if id == "" {
		return fmt.Errorf("serve: empty tenant id")
	}
	cp := make(map[string]*ckks.EvalKey, len(keys))
	for k, v := range keys {
		if !validKeyName(k) {
			return fmt.Errorf("%w: key name %q (want rlk, conj or rot:<k> with k in plain decimal)", ErrBadRequest, k)
		}
		if v != nil && v.DigitSets != nil {
			return fmt.Errorf("%w: key %q has a %d-set digit partition; only default-partition keys can be registered", ErrBadRequest, k, len(v.DigitSets))
		}
		if v != nil && v.Digits() < r.Params.Digits() {
			return fmt.Errorf("%w: key %q has %d digits, the top level needs %d", ErrBadRequest, k, v.Digits(), r.Params.Digits())
		}
		cp[k] = v
	}
	return r.keys.register(id, cp)
}

// BootstrapperFor binds the shared Precomp to a fresh local evaluator over
// the tenant's current keys — no cache, no lock: TenantKeys →
// tenantEvaluator → bindBootstrapper. Serving does not call it (a refresh
// binds the evaluator its program is already running on, see Core.refresh);
// it is a convenience for bench/ and tests.
func (r *Registry) BootstrapperFor(id string) (*bootstrap.Bootstrapper, error) {
	if r.Pre == nil {
		return nil, fmt.Errorf("serve: bootstrapping disabled")
	}
	keys, ok := r.TenantKeys(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, id)
	}
	return bindBootstrapper(r.Pre, tenantEvaluator(r.Params, keys))
}

// bindBootstrapper is the one bind path: bootstrap.Precomp.Bind, with an
// evaluator lacking the circuit's keys failing typed as ErrMissingKeys (403).
func bindBootstrapper(pre *bootstrap.Precomp, ev *ckks.Evaluator) (*bootstrap.Bootstrapper, error) {
	bs, err := pre.Bind(ev)
	if errors.Is(err, bootstrap.ErrMissingKeys) {
		err = fmt.Errorf("%w: %v", ErrMissingKeys, err)
	}
	return bs, err
}

// TenantKeys returns the tenant's key map (read-only — do not mutate).
// An evicted tenant reloads from the spill store here — a blocking cold
// miss on the caller's goroutine, metered as a cold-miss stall — so ok is
// false only for unknown tenants: never registered, or dropped because
// their spill bundle failed to read back (they must re-register). It takes
// no hold on the map, so serving runs load keys through the cache's
// acquire instead (Core.run).
func (r *Registry) TenantKeys(id string) (map[string]*ckks.EvalKey, bool) {
	return r.keys.get(id)
}

// TenantKeyNames returns the tenant's key-id set without loading or
// touching the LRU: the admission path validates required keys against it
// so cold tenants never block Submit itself.
func (r *Registry) TenantKeyNames(id string) (map[string]bool, bool) {
	return r.keys.keyNames(id)
}

// KeyCacheStats snapshots the key tier for /metrics and /healthz.
func (r *Registry) KeyCacheStats() KeyCacheStats {
	return r.keys.stats()
}

// runKeys is required plus, with a bootstrap circuit, the circuit's keys:
// rlk, conj and a rotation key per offset it rotates by. It is never nil,
// since a nil list asks the key cache for every key.
func runKeys(required []string, pre *bootstrap.Precomp) []string {
	ids := append([]string{}, required...)
	if pre == nil {
		return ids
	}
	add := func(id string) {
		if !slices.Contains(ids, id) {
			ids = append(ids, id)
		}
	}
	add("rlk")
	add("conj")
	for _, k := range pre.Rotations() {
		add(fmt.Sprintf("rot:%d", k))
	}
	return ids
}

// MissingKeyNames reports which of the program's required keys the key-id
// set lacks — what admission uses, so validating a spilled tenant needs no
// bundle load.
func (p *Program) MissingKeyNames(names map[string]bool) []string {
	var missing []string
	for _, id := range p.RequiredKeys {
		if !names[id] {
			missing = append(missing, id)
		}
	}
	return missing
}

// encodePlaintexts encodes the catalog operands at the scales the plan
// assumed, with every limb (MaxLevel); the executor restricts on demand (and
// the limb ISA addresses limbs by modulus), so circuits consuming an operand
// at a lower level just use fewer limbs.
func encodePlaintexts(params *ckks.Parameters, enc *ckks.Encoder, spec workloads.ServeWorkload, scales map[string]float64) (map[string]*ckks.Plaintext, error) {
	pts := map[string]*ckks.Plaintext{}
	for _, ps := range spec.Plaintexts {
		values := ps.Values
		if values == nil {
			values = func(slots int) []complex128 { return workloads.ServeWeightVector(ps.Name, slots) }
		}
		pt, err := enc.Encode(values(params.Slots()), params.MaxLevel(), scales[ps.Name])
		if err != nil {
			return nil, fmt.Errorf("encoding plaintext %q: %w", ps.Name, err)
		}
		pts[ps.Name] = pt
	}
	return pts, nil
}

// levelPlan is a program recorded and planned for one input level.
type levelPlan struct {
	level    int
	graph    *polyir.Graph
	ptScales map[string]float64
	plan     *sched.Plan
}

// planAt records the program's batch-1 IR graph with its input at level,
// resolves its plaintext scales for that level and runs the plan walk. A
// program that cannot run from level fails here: the DSL runs out of levels,
// a scale names a modulus below the chain, or the walk needs a refresh no
// service provides.
func planAt(params *ckks.Parameters, spec workloads.ServeWorkload, level, exitLevel int) (*levelPlan, error) {
	// The DSL tracks virtual levels eagerly, so a deeper-than-chain program
	// is recorded at its own depth; physical levels are the plan's business.
	dslLevel := level
	if spec.MinLevels > params.MaxLevel() {
		dslLevel = spec.MinLevels
	}
	prog := dsl.NewProgram(dsl.Config{MaxLevel: dslLevel})
	dsl.StreamPool(prog, 1, func(i int, s *dsl.Stream) {
		x := s.Input(fmt.Sprintf("x%d", i), dslLevel)
		s.Output(fmt.Sprintf("y%d", i), spec.Build(s, x))
	})
	g, err := prog.Finish()
	if err != nil {
		return nil, err
	}
	ptScales := map[string]float64{}
	for _, ps := range spec.Plaintexts {
		scale := params.DefaultScale()
		if ps.Scale != nil {
			if scale, err = ps.Scale(params, level); err != nil {
				return nil, err
			}
		}
		ptScales[ps.Name] = scale
	}
	plan, err := sched.BuildPlan(g, params, ptScales, level, exitLevel)
	if err != nil {
		return nil, err
	}
	return &levelPlan{level: level, graph: g, ptScales: ptScales, plan: plan}, nil
}

// compileProgram builds a catalog entry: the batch-1 IR graph, its
// level/scale plan and the executor that walks it. The plan is the
// executor's walk over predicted states, so a scale mismatch the evaluator
// would reject fails compilation instead of a request.
//
// InLevel is the least input level whose plan succeeds with no more
// refreshes than the plan for an input at MaxLevel; the search runs that
// same walk from level 0 up. Admission truncates one-shot requests to it, and
// the graph, the plaintext scales, the advertised output level and scale and
// the limb module all describe an input at InLevel. A plan that needs
// refreshes makes the entry Bootstrapped — the tenant's key set must then
// also cover the bootstrap circuit (conj + its rotation offsets), which
// RequiredKeys advertises; any other program is additionally lowered to its
// batch-1 limb module (see Program.VariantFor).
func compileProgram(params *ckks.Parameters, enc *ckks.Encoder, spec workloads.ServeWorkload, pre *bootstrap.Precomp) (*Program, error) {
	exitLevel := 0
	if pre != nil {
		exitLevel = pre.ExitLevel()
	}
	lp, err := planAt(params, spec, params.MaxLevel(), exitLevel)
	if err != nil {
		return nil, err
	}
	for level := 0; level < params.MaxLevel(); level++ {
		if low, err := planAt(params, spec, level, exitLevel); err == nil && low.plan.Bootstraps <= lp.plan.Bootstraps {
			lp = low
			break
		}
	}
	g, plan := lp.graph, lp.plan
	p := &Program{Spec: spec, InLevel: lp.level}
	if p.Plaintexts, err = encodePlaintexts(params, enc, spec, lp.ptScales); err != nil {
		return nil, err
	}
	p.exec = sched.NewExecutor(g, params, p.Plaintexts)
	p.Spec.Reference = p.runOnce
	p.OutLevel, p.OutScale = plan.OutLevel, plan.OutScale
	p.BootstrapsRequired = plan.Bootstraps
	p.Bootstrapped = plan.Bootstraps > 0
	if p.Bootstrapped {
		// The tenant must hold the program's own keys plus the bootstrap
		// circuit's: rlk, conj, and the union of rotation offsets.
		rotSet := map[int]bool{}
		for _, k := range plan.Rotations {
			rotSet[k] = true
		}
		for _, k := range pre.Rotations() {
			rotSet[k] = true
		}
		for k := range rotSet {
			p.Rotations = append(p.Rotations, k)
		}
		sort.Ints(p.Rotations)
		p.RequiredKeys = []string{"rlk", "conj"}
		for _, k := range p.Rotations {
			p.RequiredKeys = append(p.RequiredKeys, fmt.Sprintf("rot:%d", k))
		}
		return p, nil
	}
	p.RequiredKeys, p.Rotations = plan.Keys, plan.Rotations
	// One chip per stream: the pass marks every keyswitch sequential (no
	// inter-chip collectives), so the module needs only rlk/rot/conj keys.
	groups := (&polyir.KeyswitchPass{NChips: 1}).Run(g)
	mod, err := compiler.Lower(g, params, 1, groups)
	if err != nil {
		return nil, err
	}
	if mod, err = compiler.Allocate(mod, allocRegisters); err != nil {
		return nil, err
	}
	p.variant = &Variant{Module: mod}
	return p, nil
}
