// Package server exposes a core.System over HTTP/JSON — the network face
// of the central control station. Handlers are a thin, uniform projection
// of the System API; all model logic stays in internal/core and below.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/authz"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Server wraps a System with an http.Handler.
type Server struct {
	sys     *core.System
	mux     *http.ServeMux
	metrics *metrics
	// registry adapts every stats struct to the /metrics exposition
	// (built once in New; collectors read live counters per scrape).
	registry *obs.Registry
	// rep is set when this server fronts a read-only follower: queries
	// are served from the replica's published views, mutations return
	// 403 (core.ErrReadOnly), and /v1/replication/status reports the
	// replica role.
	rep *core.Replica
	// walPoll overrides the replication stream's idle polling cadence
	// (tests set it low; 0 selects defaultWALPoll).
	walPoll time.Duration
	// stream holds the streaming-endpoint machinery (ingest counters,
	// lazily-built event bus); maxLag arms the replica read barrier
	// (SetFollowLagMax).
	stream streamState
	maxLag time.Duration
	// draining flips on BeginDrain: readyz goes unready and new streaming
	// connections are refused while in-flight work finishes.
	draining atomic.Bool
	// captureTimeout bounds CaptureBootstrap in the replication handlers
	// (0 selects defaultCaptureTimeout; see SetCaptureTimeout).
	captureTimeout time.Duration
	// promoteDir arms POST /v1/admin/promote on a follower: the data
	// directory the new primary lineage is written into (see
	// SetPromoteDir).
	promoteDir string
	// walConns/walBytes count the live /v1/replication/wal streams this
	// node is serving and the frame bytes shipped over them — the
	// fan-out measurement: a working cascade shows leaf traffic on the
	// follower's counters while the primary's stay flat.
	walConns atomic.Int64
	walBytes atomic.Uint64
}

// isFollower reports whether this server currently fronts a read-only
// follower. A promoted replica is NOT a follower: after Promote the
// same handlers serve the full primary surface, so every role check
// goes through here rather than testing s.rep directly.
func (s *Server) isFollower() bool { return s.rep != nil && !s.rep.Promoted() }

// New builds the handler set over sys.
func New(sys *core.System) *Server {
	s := &Server{sys: sys, mux: http.NewServeMux(), metrics: newMetrics()}
	s.routes()
	s.registry = s.buildRegistry()
	return s
}

// NewReplica builds the handler set over a read-only follower: the full
// query surface served from rep's System, with mutations rejected by
// the core's ErrReadOnly gate.
func NewReplica(rep *core.Replica) *Server {
	s := New(rep.System())
	s.rep = rep
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handle registers the route with a latency-recording wrapper; every
// request's duration lands in the pattern's histogram (see metrics.go).
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	hist := s.metrics.register(pattern)
	exempt := lagExempt(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if !exempt && s.barred(w) {
			return
		}
		start := time.Now()
		h(w, r)
		hist.observe(time.Since(start))
	})
}

func (s *Server) routes() {
	s.handle("POST /v1/subjects", s.putSubject)
	s.handle("GET /v1/subjects", s.listSubjects)
	s.handle("GET /v1/subjects/{id}", s.getSubject)
	s.handle("DELETE /v1/subjects/{id}", s.removeSubject)

	s.handle("POST /v1/authorizations", s.addAuthorization)
	s.handle("GET /v1/authorizations", s.listAuthorizations)
	s.handle("DELETE /v1/authorizations/{id}", s.revokeAuthorization)

	s.handle("POST /v1/rules", s.addRule)
	s.handle("GET /v1/rules", s.listRules)
	s.handle("DELETE /v1/rules/{name}", s.removeRule)

	s.handle("POST /v1/request", s.request)
	s.handle("POST /v1/enter", s.enter)
	s.handle("POST /v1/leave", s.leave)
	s.handle("POST /v1/tick", s.tick)
	s.handle("POST /v1/observe/batch", s.observeBatch)

	s.handle("GET /v1/queries/inaccessible", s.inaccessible)
	s.handle("GET /v1/queries/contacts", s.contacts)
	s.handle("GET /v1/queries/reach", s.reach)
	s.handle("GET /v1/queries/whocan", s.whocan)
	s.handle("GET /v1/conflicts", s.conflicts)
	s.handle("POST /v1/conflicts/resolve", s.resolveConflicts)
	s.handle("GET /v1/where", s.where)
	s.handle("GET /v1/occupants", s.occupants)
	s.handle("GET /v1/alerts", s.alerts)
	s.handle("GET /v1/graph", s.graphSpec)
	s.handle("GET /v1/stats", s.stats)
	s.handle("GET /v1/trace", s.traceHandler)
	s.handle("GET /metrics", s.metricsHandler)
	s.handle("POST /v1/snapshot", s.snapshot)

	s.handle("GET /v1/healthz", s.healthz)
	s.handle("GET /v1/readyz", s.readyz)

	s.handle("POST /v1/admin/promote", s.adminPromote)

	s.handle("GET /v1/replication/snapshot", s.replicationSnapshot)
	s.handle("GET /v1/replication/status", s.replicationStatus)
	// The WAL stream and the /v1/stream/* connections are long-lived;
	// registering them unwrapped keeps one endless request from skewing
	// the latency histograms.
	s.mux.HandleFunc("GET /v1/replication/wal", s.replicationWAL)
	s.mux.HandleFunc("POST /v1/stream/observe", s.streamObserve)
	s.mux.HandleFunc("GET /v1/stream/events", s.streamEvents)

	s.handle("POST /v1/stream/ack", s.streamAck)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	// Every 503 is a retryable condition (drain, poisoned committer,
	// stale replica, busy capture): tell load balancers when to come
	// back. Callers that computed a better hint set the header first.
	if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", retryAfter(1))
	}
	writeJSON(w, code, wire.Error{Error: err.Error()})
}

// retryAfter jitters a Retry-After hint across [min, 2*min]: a fleet of
// clients bounced by the same 503 (a drain, a failover window) must not
// re-arrive in one synchronized wave.
func retryAfter(min int) string {
	return strconv.Itoa(min + rand.Intn(min+1))
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func (s *Server) putSubject(w http.ResponseWriter, r *http.Request) {
	var sub profile.Subject
	if !readJSON(w, r, &sub) {
		return
	}
	if err := s.sys.PutSubject(sub); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

func (s *Server) listSubjects(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sys.Subjects())
}

func (s *Server) getSubject(w http.ResponseWriter, r *http.Request) {
	sub, err := s.sys.GetSubject(profile.SubjectID(r.PathValue("id")))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sub)
}

func (s *Server) removeSubject(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.RemoveSubject(profile.SubjectID(r.PathValue("id"))); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) addAuthorization(w http.ResponseWriter, r *http.Request) {
	var a authz.Authorization
	if !readJSON(w, r, &a) {
		return
	}
	a.ID = 0
	stored, err := s.sys.AddAuthorization(a)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, stored)
}

func (s *Server) listAuthorizations(w http.ResponseWriter, r *http.Request) {
	subject := profile.SubjectID(r.URL.Query().Get("subject"))
	location := graph.ID(r.URL.Query().Get("location"))
	var out []authz.Authorization
	switch {
	case subject != "" && location != "":
		out = s.sys.AuthorizationsFor(subject, location)
	case subject != "":
		out = s.sys.AuthStore().BySubject(subject)
	case location != "":
		out = s.sys.AuthStore().ByLocation(location)
	default:
		out = s.sys.Authorizations()
	}
	if out == nil {
		out = []authz.Authorization{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) revokeAuthorization(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad authorization id"))
		return
	}
	n, err := s.sys.RevokeAuthorization(authz.ID(id))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.RevokeResponse{Removed: n})
}

func (s *Server) addRule(w http.ResponseWriter, r *http.Request) {
	var spec rules.Spec
	if !readJSON(w, r, &spec) {
		return
	}
	rep, err := s.sys.AddRule(spec)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.RuleResponse{Derived: rep.Derived, Skips: rep.Skips})
}

func (s *Server) listRules(w http.ResponseWriter, _ *http.Request) {
	var specs []rules.Spec
	for _, r := range s.sys.Rules() {
		if spec, ok := rules.SpecOf(r); ok {
			specs = append(specs, spec)
		}
	}
	if specs == nil {
		specs = []rules.Spec{}
	}
	writeJSON(w, http.StatusOK, specs)
}

func (s *Server) removeRule(w http.ResponseWriter, r *http.Request) {
	if err := s.sys.RemoveRule(r.PathValue("name")); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) request(w http.ResponseWriter, r *http.Request) {
	var m wire.MoveRequest
	if !readJSON(w, r, &m) {
		return
	}
	d := s.sys.Request(m.Time, m.Subject, m.Location)
	writeJSON(w, http.StatusOK, wire.DecisionResponse{
		Granted: d.Granted, Auth: d.Auth, Reason: d.Reason, Exhausted: d.Exhausted,
	})
}

func (s *Server) enter(w http.ResponseWriter, r *http.Request) {
	var m wire.MoveRequest
	if !readJSON(w, r, &m) {
		return
	}
	d, err := s.sys.Enter(m.Time, m.Subject, m.Location)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.DecisionResponse{
		Granted: d.Granted, Auth: d.Auth, Reason: d.Reason, Exhausted: d.Exhausted,
	})
}

func (s *Server) leave(w http.ResponseWriter, r *http.Request) {
	var m wire.MoveRequest
	if !readJSON(w, r, &m) {
		return
	}
	if err := s.sys.Leave(m.Time, m.Subject); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func (s *Server) tick(w http.ResponseWriter, r *http.Request) {
	var m wire.MoveRequest
	if !readJSON(w, r, &m) {
		return
	}
	raised, err := s.sys.Tick(m.Time)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, wire.TickResponse{Raised: raised})
}

// observeBatch is the high-rate ingest endpoint: a batch of positioning
// readings is applied in one core critical section and durably logged as
// one WAL group (a single fsync). Per-reading failures ride back in the
// matching result; the request fails as a whole only when the batch
// cannot be applied (no boundaries) or was not durably committed.
func (s *Server) observeBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.ObserveBatchRequest
	if !readJSON(w, r, &req) {
		return
	}
	decoded := obs.Now()
	readings := make([]core.Reading, len(req.Readings))
	for i, rd := range req.Readings {
		readings[i] = core.Reading{
			Time:    rd.Time,
			Subject: rd.Subject,
			At:      geometry.Point{X: rd.X, Y: rd.Y},
			Stamps:  obs.FrameStamps{Decode: decoded},
		}
	}
	outcomes, err := s.sys.ObserveBatch(readings)
	if err != nil {
		// Two distinct failures: a rejected batch (no boundaries — the
		// client's request cannot be served, 400) versus a durability
		// failure (the batch IS applied in memory but the WAL group was
		// not acknowledged — 500, so clients do not re-submit and
		// double-apply every reading).
		if outcomes == nil {
			writeErr(w, statusFor(err), err)
		} else {
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	results := make([]wire.ObserveOutcome, len(outcomes))
	for i, o := range outcomes {
		results[i] = wire.ObserveOutcome{
			Granted: o.Decision.Granted,
			Auth:    o.Decision.Auth,
			Reason:  o.Decision.Reason,
			Moved:   o.Moved,
		}
		if o.Err != nil {
			results[i].Error = o.Err.Error()
		}
	}
	writeJSON(w, http.StatusOK, wire.ObserveBatchResponse{Results: results})
}

func (s *Server) inaccessible(w http.ResponseWriter, r *http.Request) {
	subject := profile.SubjectID(r.URL.Query().Get("subject"))
	if subject == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("subject parameter required"))
		return
	}
	writeJSON(w, http.StatusOK, wire.InaccessibleResponse{
		Subject:      subject,
		Inaccessible: s.sys.Inaccessible(subject),
		Accessible:   s.sys.Accessible(subject),
	})
}

func (s *Server) contacts(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	subject := profile.SubjectID(q.Get("subject"))
	if subject == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("subject parameter required"))
		return
	}
	window := interval.From(0)
	if fs, ts := q.Get("from"), q.Get("to"); fs != "" || ts != "" {
		from, err := strconv.ParseInt(fs, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from"))
			return
		}
		to := int64(interval.Inf)
		if ts != "" {
			if to, err = strconv.ParseInt(ts, 10, 64); err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad to"))
				return
			}
		}
		window = interval.New(interval.Time(from), interval.Time(to))
	}
	writeJSON(w, http.StatusOK, wire.ContactsResponse{Contacts: s.sys.ContactsOf(subject, window)})
}

func (s *Server) reach(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	subject := profile.SubjectID(q.Get("subject"))
	location := graph.ID(q.Get("location"))
	if subject == "" || location == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("subject and location parameters required"))
		return
	}
	at, ok := s.sys.EarliestAccess(subject, location)
	writeJSON(w, http.StatusOK, wire.ReachResponse{Reachable: ok, Earliest: at})
}

func (s *Server) whocan(w http.ResponseWriter, r *http.Request) {
	location := graph.ID(r.URL.Query().Get("location"))
	if location == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("location parameter required"))
		return
	}
	who := s.sys.WhoCanAccess(location)
	if who == nil {
		who = []profile.SubjectID{}
	}
	writeJSON(w, http.StatusOK, wire.OccupantsResponse{Occupants: who})
}

func (s *Server) conflicts(w http.ResponseWriter, _ *http.Request) {
	out := s.sys.Conflicts()
	if out == nil {
		out = []authz.Conflict{}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) resolveConflicts(w http.ResponseWriter, r *http.Request) {
	var req wire.ResolveRequest
	if !readJSON(w, r, &req) {
		return
	}
	var strategy authz.Strategy
	switch req.Strategy {
	case "combine":
		strategy = authz.Combine
	case "keep-first":
		strategy = authz.KeepFirst
	case "keep-last":
		strategy = authz.KeepLast
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown strategy %q", req.Strategy))
		return
	}
	res, err := s.sys.ResolveConflicts(strategy)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if res == nil {
		res = []authz.Resolution{}
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) where(w http.ResponseWriter, r *http.Request) {
	subject := profile.SubjectID(r.URL.Query().Get("subject"))
	loc, inside := s.sys.WhereIs(subject)
	writeJSON(w, http.StatusOK, wire.WhereResponse{Inside: inside, Location: loc})
}

func (s *Server) occupants(w http.ResponseWriter, r *http.Request) {
	l := graph.ID(r.URL.Query().Get("location"))
	occ := s.sys.Occupants(l)
	if occ == nil {
		occ = []profile.SubjectID{}
	}
	writeJSON(w, http.StatusOK, wire.OccupantsResponse{Occupants: occ})
}

func (s *Server) alerts(w http.ResponseWriter, r *http.Request) {
	since := uint64(0)
	if v := r.URL.Query().Get("since"); v != "" {
		var err error
		if since, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad since"))
			return
		}
	}
	writeJSON(w, http.StatusOK, s.sys.Alerts().Since(since))
}

func (s *Server) graphSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, graph.ToSpec(s.sys.Graph()))
}

func (s *Server) stats(w http.ResponseWriter, _ *http.Request) {
	vs := s.sys.ViewStats()
	writeJSON(w, http.StatusOK, wire.StatsResponse{
		Clock:  s.sys.Clock(),
		Cache:  s.sys.QueryCacheStats(),
		Commit: s.sys.CommitStats(),
		Authz:  s.sys.AuthStore().Stats(),
		View: wire.ViewStats{
			Epoch:      vs.Epoch,
			Publishes:  vs.Publishes,
			AuthShards: vs.AuthShards,
		},
		Movement:    s.sys.Movements().Stats(),
		Endpoints:   s.metrics.snapshot(),
		Replication: s.replicationWireStatus(nil),
		Stream:      s.streamStats(),
		Trace:       s.traceStats(),
	})
}

func (s *Server) snapshot(w http.ResponseWriter, _ *http.Request) {
	if err := s.sys.Snapshot(); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

func statusFor(err error) int {
	if errors.Is(err, authz.ErrNotFound) || errors.Is(err, profile.ErrNotFound) {
		return http.StatusNotFound
	}
	if errors.Is(err, core.ErrReadOnly) {
		return http.StatusForbidden
	}
	if errors.Is(err, core.ErrFenced) {
		// A fenced primary must shed its writers to the new primary: 503
		// (retry elsewhere), not 403 (the client did nothing wrong).
		return http.StatusServiceUnavailable
	}
	if errors.Is(err, storage.ErrWALPoisoned) {
		// The committer refuses further commits (fsyncgate): the node is
		// degraded to read-only. 503 so clients retry AGAINST ANOTHER
		// NODE — the poison never clears without a restart — while this
		// node's pure queries keep serving.
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}
