package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"cinnamon/internal/ckks"
	"cinnamon/internal/cluster"
	"cinnamon/internal/sched"
)

// HTTP wire protocol (all binary bodies use the ckks little-endian
// marshal format):
//
//	GET  /healthz                     → 200 "ok"
//	GET  /metrics                     → JSON Snapshot
//	GET  /v1/params                   → JSON ckks.ParametersLiteral
//	GET  /v1/programs                 → JSON []ProgramInfo
//	POST /v1/tenants/{tenant}/keys    → key bundle (see below), 204
//	POST /v1/programs/{name}:run      → request ciphertext body,
//	                                    X-Cinnamon-Tenant header,
//	                                    response ciphertext body
//	POST   /v1/sessions               → JSON {"tenant","program"},
//	                                    JSON SessionInfo (201)
//	POST   /v1/sessions/{id}:step     → optional ciphertext body (empty
//	                                    body iterates the held state),
//	                                    response ciphertext body +
//	                                    X-Cinnamon-Session-Steps /
//	                                    X-Cinnamon-State-Level headers
//	GET    /v1/sessions/{id}          → JSON SessionInfo
//	DELETE /v1/sessions/{id}          → 204
//
// A key bundle is: uint32 magic "CINK", uint32 count, then per key a
// uint16 name length, the name bytes, and a marshaled ckks.EvalKey.

const keyBundleMagic = 0x43494e4b // "CINK"

// HandlerConfig bounds untrusted request bodies.
type HandlerConfig struct {
	// MaxCiphertextBytes bounds a run-request body. Default 64 MiB.
	MaxCiphertextBytes int64
	// MaxKeyBundleBytes bounds a key-registration body. Default 1 GiB.
	MaxKeyBundleBytes int64
}

// ProgramInfo is the JSON program listing entry.
type ProgramInfo struct {
	Name         string   `json:"name"`
	Description  string   `json:"description"`
	InputLevel   int      `json:"input_level"`
	OutputLevel  int      `json:"output_level"`
	OutputScale  float64  `json:"output_scale"`
	RequiredKeys []string `json:"required_keys"`
	// Rotations is the exact rotation-key set the compiled circuit
	// consumes (from the lowered IR, not the catalog declaration).
	Rotations []int `json:"rotations,omitempty"`
	// VerifyTolerance is the per-program decrypt-and-verify slot error
	// bound the server suggests; 0 means the client default applies.
	VerifyTolerance float64 `json:"verify_tolerance,omitempty"`
	// Bootstrapped marks a program deeper than the modulus chain, served
	// with BootstrapsRequired mid-program refreshes per one-shot request.
	Bootstrapped       bool `json:"bootstrapped,omitempty"`
	BootstrapsRequired int  `json:"bootstraps_required,omitempty"`
}

// NewHandler wires the serving core into a net/http handler.
func NewHandler(core *Core, cfg HandlerConfig) http.Handler {
	if cfg.MaxCiphertextBytes <= 0 {
		cfg.MaxCiphertextBytes = 64 << 20
	}
	if cfg.MaxKeyBundleBytes <= 0 {
		cfg.MaxKeyBundleBytes = 1 << 30
	}
	s := &server{core: core, cfg: cfg}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/params", s.handleParams)
	mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	mux.HandleFunc("POST /v1/tenants/{tenant}/keys", s.handleKeys)
	mux.HandleFunc("POST /v1/programs/{op}", s.handleRun)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{op}", s.handleSessionStep)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	return recoverMiddleware(s.core.Metrics(), mux)
}

// recoverMiddleware is the last-resort panic boundary of the HTTP
// surface: a handler panic becomes a 500 (when nothing was written yet)
// and a Panics tick, never a dead connection from an unwound server
// goroutine. net/http would also recover, but silently and without
// counting.
func recoverMiddleware(met *Metrics, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				met.Panics.Add(1)
				http.Error(w, fmt.Sprintf("internal error: recovered panic: %v", p), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

type server struct {
	core *Core
	cfg  HandlerConfig
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.core.Health()
	w.Header().Set("Content-Type", "application/json")
	if !h.OK {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.core.Metrics().Snapshot())
}

func (s *server) handleParams(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.core.Registry().Literal)
}

func (s *server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	reg := s.core.Registry()
	infos := make([]ProgramInfo, 0, len(reg.ProgramNames()))
	for _, name := range reg.ProgramNames() {
		p, _ := reg.Program(name)
		infos = append(infos, ProgramInfo{
			Name:               p.Spec.Name,
			Description:        p.Spec.Description,
			InputLevel:         p.InLevel,
			OutputLevel:        p.OutLevel,
			OutputScale:        p.OutScale,
			RequiredKeys:       p.RequiredKeys,
			Rotations:          p.Rotations,
			VerifyTolerance:    p.Spec.VerifyTol,
			Bootstrapped:       p.Bootstrapped,
			BootstrapsRequired: p.BootstrapsRequired,
		})
	}
	writeJSON(w, infos)
}

func (s *server) handleKeys(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxKeyBundleBytes)
	keys, err := ReadKeyBundle(body, s.core.Registry().Params)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad key bundle: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.core.Registry().RegisterTenant(tenant, keys); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	op := r.PathValue("op")
	name, ok := strings.CutSuffix(op, ":run")
	if !ok {
		http.Error(w, "unknown program action (want {name}:run)", http.StatusNotFound)
		return
	}
	tenant := r.Header.Get("X-Cinnamon-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	if tenant == "" {
		http.Error(w, "missing X-Cinnamon-Tenant header", http.StatusBadRequest)
		return
	}
	// Resolve the program before parsing the (potentially large) body so
	// a bad name 404s instead of surfacing as a parse error.
	if _, ok := s.core.Registry().Program(name); !ok {
		http.Error(w, fmt.Sprintf("%v: %q", ErrUnknownProgram, name), http.StatusNotFound)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxCiphertextBytes)
	ct, err := ckks.ReadCiphertext(body, s.core.Registry().Params)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad ciphertext: %v", err), http.StatusBadRequest)
		return
	}
	out, err := s.core.Submit(r.Context(), name, tenant, ct)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			// Shed and degraded responses are retryable: tell well-behaved
			// clients when (a shed clears as soon as the queue drains, a
			// degraded cluster within a heartbeat interval).
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	out.Write(w)
}

func (s *server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Tenant  string `json:"tenant"`
		Program string `json:"program"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad session request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Tenant == "" || req.Program == "" {
		http.Error(w, "session request needs both tenant and program", http.StatusBadRequest)
		return
	}
	info, err := s.core.CreateSession(req.Tenant, req.Program)
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(info)
}

func (s *server) handleSessionStep(w http.ResponseWriter, r *http.Request) {
	op := r.PathValue("op")
	id, ok := strings.CutSuffix(op, ":step")
	if !ok {
		http.Error(w, "unknown session action (want {id}:step)", http.StatusNotFound)
		return
	}
	// An empty body iterates the held state; a ciphertext body (re)seeds it.
	var ct *ckks.Ciphertext
	if r.ContentLength != 0 {
		body := http.MaxBytesReader(w, r.Body, s.cfg.MaxCiphertextBytes)
		var err error
		if ct, err = ckks.ReadCiphertext(body, s.core.Registry().Params); err != nil {
			http.Error(w, fmt.Sprintf("bad ciphertext: %v", err), http.StatusBadRequest)
			return
		}
	}
	out, info, err := s.core.SessionStep(r.Context(), id, ct)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Cinnamon-Session-Steps", fmt.Sprint(info.Steps))
	w.Header().Set("X-Cinnamon-State-Level", fmt.Sprint(info.StateLevel))
	out.Write(w)
}

func (s *server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	info, err := s.core.Session(r.PathValue("id"))
	if err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	writeJSON(w, info)
}

func (s *server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if err := s.core.CloseSession(r.PathValue("id")); err != nil {
		http.Error(w, err.Error(), statusFor(err))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownProgram), errors.Is(err, ErrUnknownSession):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownTenant), errors.Is(err, ErrMissingKeys):
		return http.StatusForbidden
	case errors.Is(err, ErrBadRequest), errors.Is(err, sched.ErrNoRefresh):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown), errors.Is(err, cluster.ErrDegraded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// WriteKeyBundle serializes named evaluation keys (sorted by name for a
// deterministic wire image).
func WriteKeyBundle(w io.Writer, keys map[string]*ckks.EvalKey) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(keyBundleMagic)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(keys))); err != nil {
		return err
	}
	names := make([]string, 0, len(keys))
	for name := range keys {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if len(name) > 1<<8 {
			return fmt.Errorf("serve: key name %q too long", name)
		}
		if err := binary.Write(w, binary.LittleEndian, uint16(len(name))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, name); err != nil {
			return err
		}
		if err := keys[name].Write(w); err != nil {
			return err
		}
	}
	return nil
}

// ReadKeyBundle parses an untrusted key bundle, validating every key
// against the parameter set.
func ReadKeyBundle(r io.Reader, params *ckks.Parameters) (map[string]*ckks.EvalKey, error) {
	var magic, count uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, err
	}
	if magic != keyBundleMagic {
		return nil, fmt.Errorf("serve: bad key bundle magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count == 0 || count > 1024 {
		return nil, fmt.Errorf("serve: implausible key count %d", count)
	}
	keys := make(map[string]*ckks.EvalKey, count)
	for i := uint32(0); i < count; i++ {
		var nameLen uint16
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, err
		}
		if nameLen == 0 || nameLen > 1<<8 {
			return nil, fmt.Errorf("serve: implausible key name length %d", nameLen)
		}
		nameBytes := make([]byte, nameLen)
		if _, err := io.ReadFull(r, nameBytes); err != nil {
			return nil, err
		}
		key, err := ckks.ReadEvalKey(r, params)
		if err != nil {
			return nil, fmt.Errorf("serve: key %q: %w", nameBytes, err)
		}
		keys[string(nameBytes)] = key
	}
	return keys, nil
}
